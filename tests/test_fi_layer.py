import hashlib
import itertools
import json
from collections import Counter

import pytest

from equivar.equivariant import (
    build_Q,
    character_of,
    check_axioms,
    pq_dimension,
    regular_rep,
    sign_rep,
    trivial_rep,
)
from equivar.fi_layer import (
    DirectSum,
    Induced,
    Principal,
    Shift,
    Torsion,
    phi_s,
    theta,
    verify_phi_P,
    verify_phi_T,
)
from equivar.linalg import SparseRationalMatrix, matrix_rank


def test_evaluate_dimensions():
    assert Principal(1).dim(3) == 3
    assert Principal(0).dim(7) == 1
    assert Torsion(regular_rep(2)).dim(3) == 0
    assert Torsion(regular_rep(2)).dim(2) == 2


def test_induced_dimension_is_orbit_count():
    # invariants of the two-point principal module under source relabeling:
    # unordered pairs of distinct targets
    ind = Induced(trivial_rep(2))
    for m in range(2, 5):
        assert ind.dim(m) == m * (m - 1) // 2
    # sign-isotypic part has the complementary dimension
    sgn = Induced(sign_rep(2))
    for m in range(2, 5):
        assert ind.dim(m) + sgn.dim(m) == Principal(2).dim(m)


def test_functoriality_of_transitions():
    mods = [Principal(1), Principal(2), Torsion(regular_rep(1)),
            Induced(trivial_rep(2)), Shift(Principal(1), 1),
            DirectSum([Principal(0), Principal(1)])]
    for M in mods:
        for m0, m1, m2 in [(0, 1, 2), (1, 2, 3), (2, 3, 4)]:
            for f in itertools.permutations(range(m1), m0):
                for g in itertools.permutations(range(m2), m1):
                    gf = tuple(g[v] for v in f)
                    lhs = M.map(g, m1, m2) @ M.map(f, m0, m1)
                    rhs = M.map(gf, m0, m2)
                    assert lhs == rhs


def test_map_rejects_non_injections():
    with pytest.raises(ValueError):
        Principal(1).map((0, 0), 2, 3)
    with pytest.raises(ValueError):
        Principal(1).map((5,), 1, 3)


def test_phi_degreewise_dimensions_example():
    m = phi_s(Principal(1), 1, 2)
    degs = Counter()
    for alpha, _ in m.labels:
        degs[alpha] += 1
    assert m.dim == 4
    assert degs == {(1, 0): 1, (0, 1): 1, (1, 1): 2}
    assert degs.get((0, 0), 0) == 0


def test_phi_torsion_dimension_example():
    assert phi_s(Torsion(regular_rep(1)), 1, 2).dim == 2


def test_phi_requires_positive_bound():
    with pytest.raises(ValueError):
        phi_s(Principal(1), 0, 2)


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("N", [2, 3])
def test_phi_satisfies_module_axioms(s, n, N):
    check_axioms(phi_s(Principal(n), s, N))


def test_phi_is_additive_on_direct_sums():
    m_sum = phi_s(DirectSum([Principal(1), Torsion(regular_rep(1))]), 1, 2)
    m_a = phi_s(Principal(1), 1, 2)
    m_b = phi_s(Torsion(regular_rep(1)), 1, 2)
    deg = lambda mod: Counter(alpha for alpha, _ in mod.labels)
    assert deg(m_sum) == deg(m_a) + deg(m_b)
    assert m_sum.dim == m_a.dim + m_b.dim


def test_phi_exact_on_torsion_quotient_of_principal():
    # the kernel of (principal -> its top torsion quotient) has the principal
    # module's components in higher degrees only; dimensions are additive per
    # degree at every truncation
    for n, N, s in [(1, 2, 1), (1, 3, 1), (2, 3, 1), (1, 2, 2)]:
        mp = phi_s(Principal(n), s, N)
        mt = phi_s(Torsion(regular_rep(n)), s, N)
        degp = Counter(alpha for alpha, _ in mp.labels)
        degt = Counter(alpha for alpha, _ in mt.labels)
        from equivar.combinat import injection_count
        from equivar.fi_layer import _weight_positions
        for alpha in set(degp) | set(degt):
            m = len(_weight_positions(alpha, s))
            kernel_dim = injection_count(n, m) if m > n else 0
            assert degp.get(alpha, 0) == degt.get(alpha, 0) + kernel_dim


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_verify_phi_both_families(s, n, N):
    rp = verify_phi_P(s, n, N)
    assert rp.ok, rp.mismatch
    rt = verify_phi_T(s, n, N)
    assert rt.ok, rt.mismatch


def test_phi_principal_dimension_closed_form():
    for s in (1, 2):
        for n in (0, 1, 2):
            for N in (2, 3):
                assert phi_s(Principal(n), s, N).dim == pq_dimension("Q", s, n, N)


def test_phi_mismatch_reporting():
    # comparing the functor image of the wrong principal module must fail
    # with a located error, not silently
    from equivar.fi_layer import _compare_with_q

    A = phi_s(Principal(1), 1, 2)
    B = build_Q(1, 0, 2)
    out = _compare_with_q(A, B, lambda lab: A.labels[0])
    assert not out.ok and out.mismatch


def test_theta_examples():
    th = theta(Principal(1), 3)
    assert th.dim == 3
    assert theta(Torsion(regular_rep(1)), 3).dim == 0
    assert theta(Principal(0), 2).dim == 1
    # the level carries the permutation action: swap matrices square to one
    for mat in th.coxeter:
        assert (mat @ mat) == SparseRationalMatrix.identity(3)


def test_shift_evaluations():
    sh = Shift(Principal(1), 1)
    assert sh.dim(0) == 1
    assert sh.dim(2) == 3
    assert matrix_rank(sh.map((0,), 1, 2)) == sh.dim(1)


def test_phi_of_induced_matches_invariant_construction():
    # the functor image of an induced FI-module coincides (as a module with
    # group action) with the isotypic induction built on the Q side
    from equivar.equivariant import build_induced, character_of

    for rep_maker, s, N in [(trivial_rep, 1, 3), (sign_rep, 1, 3), (trivial_rep, 2, 3)]:
        rep = rep_maker(2)
        A = phi_s(Induced(rep), s, N)
        B = build_induced("Q", s, rep, N)
        check_axioms(A)
        assert A.dim == B.dim
        assert character_of(A) == character_of(B)


def test_phi_of_induced_is_pinned():
    # recorded before Induced built its transitions from Kronecker products,
    # when to_json_dict could not encode phi_s labels (alpha, index), so the
    # labels are written out here and the rest is what to_json_dict holds
    A = phi_s(Induced(sign_rep(2)), 1, 3)
    data = {
        "labels": [[list(alpha), b] for alpha, b in A.labels],
        "xmul": [m.to_triplets() for m in A.xmul],
        "coxeter": [m.to_triplets() for m in A.coxeter],
        "grading": [list(d) for d in A.grading],
    }
    assert A.dim == 6
    assert (hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
            == "5f9edb7e8e5c547d973c39c02d8b548e0014c059f5b15fdd94aa06f4d24b35d4")


def test_phi_module_encodes_as_json():
    # phi_s labels (alpha, index) are not (tuple, mono) labels: they take
    # the raw form
    A = phi_s(Induced(sign_rep(2)), 1, 3)
    data = json.loads(json.dumps(A.to_json_dict()))
    assert data["dim"] == A.dim == 6
    assert data["labels"] == [{"raw": repr(lab)} for lab in A.labels]


def test_theta_principal_is_the_tuple_permutation_representation():
    from equivar.combinat import partitions
    from equivar.equivariant import character_of
    from equivar.truncated_ring import coxeter_word, representative_permutation
    from equivar.linalg import SparseRationalMatrix

    def rep_character(rep, N):
        vals = {}
        for mu in partitions(N):
            mat = SparseRationalMatrix.identity(rep.dim)
            for j in coxeter_word(representative_permutation(mu)):
                mat = rep.coxeter[j] @ mat
            vals[mu] = sum(mat.get(i, i) for i in range(rep.dim))
        return vals

    for n, N in [(1, 3), (2, 3), (2, 4)]:
        th = theta(Principal(n), N)
        chi = character_of(build_Q(0, n, N))
        assert rep_character(th, N) == dict(chi.values)
