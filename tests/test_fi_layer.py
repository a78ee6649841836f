import hashlib
import itertools
import json
from collections import Counter

import pytest

from equivar.equivariant import EquivModule, build_Q, pq_dimension
from equivar.fi_layer import Principal, Torsion, phi_s, verify_phi_P, verify_phi_T
from reference import check_axioms


def test_evaluate_dimensions():
    assert Principal(1).dim(3) == 3
    assert Principal(0).dim(7) == 1
    assert Torsion(2).dim(3) == 0
    assert Torsion(2).dim(2) == 2


def test_functoriality_of_transitions():
    mods = [Principal(1), Principal(2), Torsion(1)]
    for M in mods:
        for m0, m1, m2 in [(0, 1, 2), (1, 2, 3), (2, 3, 4)]:
            for f in itertools.permutations(range(m1), m0):
                for g in itertools.permutations(range(m2), m1):
                    gf = tuple(g[v] for v in f)
                    g_map = M.map(g, m1, m2)
                    lhs = [None if u is None else g_map[u] for u in M.map(f, m0, m1)]
                    assert lhs == M.map(gf, m0, m2)


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
    assert phi_s(Torsion(1), 1, 2).dim == 2


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
        mt = phi_s(Torsion(n), s, N)
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


def test_phi_mismatch_locates_a_map_that_does_not_commute():
    # the identity correspondence of phi_s(Principal(1), 1, 2) against a
    # copy in which x_1 kills one more label, and one in which swap 0
    # exchanges the images of labels 0 and 1
    from equivar.fi_layer import _compare_with_q

    A = phi_s(Principal(1), 1, 2)
    assert _compare_with_q(A, A, lambda lab: lab).ok
    xmaps = [list(cm) for cm in A.xmaps]
    t = next(t for t, u in enumerate(xmaps[1]) if u is not None)
    xmaps[1][t] = None
    bad_x = EquivModule(A.cfg, A.labels, xmaps, A.swaps, grading=A.grading)
    out = _compare_with_q(A, bad_x, lambda lab: lab)
    assert not out.ok and out.mismatch == f"variable 1 does not commute at {A.labels[t]!r}"
    swaps = [list(cm) for cm in A.swaps]
    swaps[0][0], swaps[0][1] = swaps[0][1], swaps[0][0]
    bad_swap = EquivModule(A.cfg, A.labels, A.xmaps, swaps, grading=A.grading)
    out = _compare_with_q(A, bad_swap, lambda lab: lab)
    assert not out.ok and out.mismatch == f"swap 0 does not commute at {A.labels[0]!r}"


def test_phi_module_encodes_as_json():
    # phi_s labels (alpha, index) are not (tuple, mono) labels: they take
    # the raw form
    A = phi_s(Torsion(2), 1, 3)
    data = json.loads(json.dumps(A.to_json_dict()))
    assert data["dim"] == A.dim == 6
    assert data["labels"] == [{"raw": repr(lab)} for lab in A.labels]


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# sha256 of to_json_dict() of phi_s on the phi suite's grid (s in 1..2,
# n <= 2, max(n, 1) <= N <= 4), recorded while phi_s copied matrix blocks
PHI_PINS = {
    "principal": "808e7c5a8b22029fe1ef3bc1414e66d390043bd7be37e769d07851f7e42bd4a9",
    "torsion": "83bc41bde7a17a1202fa4ac40c3f4fe82b3eab8d558df1a9edef024e95a000b6",
}


@pytest.mark.parametrize("kind", sorted(PHI_PINS))
def test_phi_images_are_pinned(kind):
    rows = []
    for s, n in itertools.product((1, 2), range(3)):
        M = Principal(n) if kind == "principal" else Torsion(n)
        rows += [[s, n, N, phi_s(M, s, N).to_json_dict()] for N in range(max(n, 1), 5)]
    assert _digest(rows) == PHI_PINS[kind]
