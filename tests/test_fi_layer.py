import itertools
import json
from collections import Counter

import pytest

from equivar.equivariant import build_Q, pq_dimension, regular_rep
from equivar.fi_layer import Principal, Torsion, phi_s, verify_phi_P, verify_phi_T
from reference import check_axioms


def test_evaluate_dimensions():
    assert Principal(1).dim(3) == 3
    assert Principal(0).dim(7) == 1
    assert Torsion(regular_rep(2)).dim(3) == 0
    assert Torsion(regular_rep(2)).dim(2) == 2


def test_functoriality_of_transitions():
    mods = [Principal(1), Principal(2), Torsion(regular_rep(1))]
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


def test_phi_module_encodes_as_json():
    # phi_s labels (alpha, index) are not (tuple, mono) labels: they take
    # the raw form
    A = phi_s(Torsion(regular_rep(2)), 1, 3)
    data = json.loads(json.dumps(A.to_json_dict()))
    assert data["dim"] == A.dim == 6
    assert data["labels"] == [{"raw": repr(lab)} for lab in A.labels]
