import copy
import hashlib
import itertools
import json
import pickle
from fractions import Fraction
from math import factorial

import pytest

from equivar.combinat import ClassFunction, injections, partitions
from equivar.equivariant import (
    EquivModule,
    _build_family,
    build_P,
    build_Q,
    character_of,
    direct_sum,
    filtration_layers,
    filtration_P,
    pq_dimension,
    q_into_p_embedding,
)
from equivar.homcalc import PQFamily
from equivar.linalg import SparseRationalMatrix, matrix_rank
from equivar.truncated_ring import RingConfig, all_monomials
from reference import (
    _embed_vector,
    check_axioms,
    check_equivariance,
    column,
    embed_label,
    matrix_module,
)


def test_dimension_examples():
    assert build_P(1, 1, 3).dim == 24 == pq_dimension("P", 1, 1, 3)
    assert build_P(0, 0, 4).dim == 1
    assert build_P(1, 0, 3).dim == 2 ** 3
    assert build_Q(1, 1, 3).dim == 12 == pq_dimension("Q", 1, 1, 3)
    assert build_Q(1, 1, 2).dim == 4
    assert build_Q(2, 3, 3).dim == factorial(3)


def test_p_dimension_is_power_multiple_of_q():
    for s in (0, 1, 2):
        for n in (0, 1, 2, 3):
            for N in range(n, 5):
                assert pq_dimension("P", s, n, N) == (s + 1) ** n * pq_dimension("Q", s, n, N)


def test_bad_parameters():
    with pytest.raises(ValueError):
        build_P(1, 3, 2)
    with pytest.raises(ValueError):
        pq_dimension("Q", 1, 4, 3)


@pytest.mark.parametrize("s,n,N,message", [
    (1, -1, 2, "sizes must be >= 0"),
    (-1, 1, 2, "RingConfig requires N >= 0 and s >= 0"),
    (1, 1, 0, "tuple size n=1 exceeds truncation N=0"),
    (1, 3, 2, "tuple size n=3 exceeds truncation N=2"),
], ids=["negative-n", "negative-s", "n-over-N0", "n-over-N"])
def test_refusals_are_raised_at_the_build_call(monkeypatch, s, n, N, message):
    # through build_P, build_Q and PQFamily.build (a record made with
    # _make skips PQFamily's own sign check), before any data is filled
    def refuse(self, *args, **kwargs):
        raise AssertionError("a module was filled")

    monkeypatch.setattr(EquivModule, "__init__", refuse)
    calls = [lambda: build_P(s, n, N), lambda: build_Q(s, n, N),
             lambda: PQFamily._make(("P", s, n)).build(N),
             lambda: PQFamily._make(("Q", s, n)).build(N)]
    for call in calls:
        with pytest.raises(ValueError) as raised:
            call()
        assert type(raised.value) is ValueError and str(raised.value) == message


# the sha256 of [kind, s, n, N, to_json_dict(), grading] for every P and Q
# module with s <= 2, N <= 4 and n <= N, in that order, taken while the
# builder still listed every module at the build call
PQ_MODULES_SHA256 = "a52b8731fc86698891d27d10b1060fd6e56aa11253ea80ff6dd6129168b5ca35"
DATA_SLOTS = ("labels", "label_index", "xmaps", "swaps", "grading")


def test_filled_modules_are_pinned():
    # each module is built afresh, and its first read is one of the five
    # data slots in turn
    _build_family.cache_clear()
    rows = []
    for kind in "PQ":
        for s in range(3):
            for N in range(5):
                for n in range(N + 1):
                    M = _build_family(kind, s, n, N)
                    getattr(M, DATA_SLOTS[len(rows) % len(DATA_SLOTS)])
                    rows.append([kind, s, n, N, M.to_json_dict(), [list(g) for g in M.grading]])
    blob = json.dumps(rows, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PQ_MODULES_SHA256


def test_unfilled_modules_copy_and_pickle():
    # copy and pickle probe names other than the data slots, and a copy of
    # an unfilled module fills itself to the same content
    _build_family.cache_clear()
    made = [_build_family("Q", 1, 1, 3) for _ in range(3)]
    copies = [copy.copy(made[0]), copy.deepcopy(made[1]), pickle.loads(pickle.dumps(made[2]))]
    assert not hasattr(made[0], "xmul")
    for M in copies:
        assert M is not made[0] and M.family == ("Q", 1, 1)
        assert M.to_json_dict() == made[0].to_json_dict()


@pytest.mark.parametrize("N,n,s,kind", [
    (N, n, s, kind)
    for N in (1, 2, 3, 4) for n in range(min(N, 3) + 1) for s in (0, 1, 2) for kind in "PQ"
])
def test_module_axioms_exhaustive(kind, s, n, N):
    mod = build_P(s, n, N) if kind == "P" else build_Q(s, n, N)
    assert mod.dim == pq_dimension(kind, s, n, N)
    check_axioms(mod)


def test_q_into_p_embedding_rank_and_equivariance():
    for s, n, N in [(0, 1, 2), (1, 1, 2), (1, 2, 3), (2, 1, 2), (2, 2, 3)]:
        emb = q_into_p_embedding(s, n, N)
        check_equivariance(emb)
        assert matrix_rank(emb.matrix) == emb.source.dim  # injective


def test_q_into_p_composite_is_tuple_power_multiplication():
    s, n, N = 1, 1, 2
    emb = q_into_p_embedding(s, n, N)
    P, Q = emb.target, emb.source
    # quotient map P -> Q: send (T, mono) to itself when mono vanishes on T
    proj = SparseRationalMatrix(Q.dim, P.dim)
    for col, lab in enumerate(P.labels):
        if lab in Q.label_index:
            proj.set(Q.label_index[lab], col, 1)
    comp = emb.matrix @ proj  # P -> P
    # expected: multiply each label by its own tuple variables to the s
    expected = SparseRationalMatrix(P.dim, P.dim)
    for col, (T, mono) in enumerate(P.labels):
        target = list(mono)
        ok = True
        for t in T:
            target[t] += s
            if target[t] > s:
                ok = False
        if ok:
            expected.set(P.label_index[(T, tuple(target))], col, 1)
    assert comp == expected
    assert not comp.is_zero()


def test_embedding_q_rank_example():
    emb = q_into_p_embedding(1, 1, 2)
    assert matrix_rank(emb.matrix) == 4


def test_filtration_piece_count_and_characters():
    for s, n, N in [(0, 1, 2), (1, 1, 3), (1, 2, 3), (2, 1, 2), (2, 2, 3)]:
        chars = filtration_P(s, n, N)
        assert len(chars) == (s + 1) ** n
        chi_q = character_of(build_Q(s, n, N))
        for chi in chars:
            assert chi == chi_q


def test_filtration_dimension_bookkeeping():
    chars = filtration_P(1, 1, 3)
    assert len(chars) == 2
    assert all(chi.dim() == 12 for chi in chars)
    assert sum(chi.dim() for chi in chars) == build_P(1, 1, 3).dim


def test_filtration_prefixes_are_submodules():
    P, layers = filtration_layers(1, 2, 3)
    plain = matrix_module(P)
    taken = set()
    for layer in layers:
        taken |= set(layer.labels)
        cols = set(P.label_index[lab] for lab in taken)
        for mat in plain.xmul + plain.coxeter:
            for j in cols:
                for r in column(mat, j):
                    assert r in cols  # the partial union is closed under the action


def test_character_of_examples():
    ring = build_P(1, 0, 2)
    chi = character_of(ring)
    assert chi == ClassFunction(2, {(1, 1): 4, (2,): 2})
    assert chi.dim() == ring.dim
    # additivity on direct sums
    q = build_Q(1, 1, 2)
    both = direct_sum([ring, q])
    assert character_of(both) == chi + character_of(q)


def test_character_multiple_relation_p_vs_q():
    for s, n, N in [(1, 1, 2), (1, 2, 3), (2, 1, 2)]:
        chi_p = character_of(build_P(s, n, N))
        chi_q = character_of(build_Q(s, n, N))
        assert chi_p.values == {mu: v * (s + 1) ** n for mu, v in chi_q.values.items()}


def test_embed_label_and_embedding_matrix():
    small = build_Q(1, 1, 2)
    big = build_Q(1, 1, 3)
    # the label inclusion sends the basis of small to distinct labels of big
    images = [_embed_vector({t: 1}, small, big) for t in range(small.dim)]
    assert len(set().union(*images)) == small.dim
    lab = ((0,), (0, 1))
    assert embed_label(lab, 3) == ((0,), (0, 1, 0))
    assert embed_label((2, lab), 3) == (2, ((0,), (0, 1, 0)))
    with pytest.raises(ValueError):
        embed_label(("x",), 3)


def test_json_dump_shape():
    mod = build_Q(1, 1, 2)
    data = mod.to_json_dict()
    assert data["cfg"] == {"N": 2, "s": 1}
    assert data["dim"] == 4
    assert len(data["labels"]) == 4
    assert len(data["xmul"]) == 2 and len(data["coxeter"]) == 1
    for tri in data["xmul"][0]:
        assert len(tri) == 4  # row, col, numerator, denominator
    assert all(len(d["mono"]) == 2 for d in data["labels"])
    assert "grading" in data


def test_perm_matrix_matches_label_action():
    mod = build_Q(1, 2, 3)
    for g in itertools.permutations(range(3)):
        mat = mod.perm_matrix(g)
        for col, (T, mono) in enumerate(mod.labels):
            newT = tuple(g[t] for t in T)
            new_mono = [0] * 3
            for i, e in enumerate(mono):
                new_mono[g[i]] = e
            expected_row = mod.label_index[(newT, tuple(new_mono))]
            assert column(mat, col) == {expected_row: Fraction(1)}


def _enumerated_pq(kind, s, n, N):
    """The P or Q module built by enumerating every (tuple, monomial) pair of
    the ring and dropping, for Q, the pairs nonzero on the tuple: the oracle
    for the rank arithmetic of ``_build_family``."""
    monos = all_monomials(RingConfig(N, s))
    tuples = injections(n, N)
    mono_index = {m: b for b, m in enumerate(monos)}
    tuple_index = {T: a for a, T in enumerate(tuples)}
    labels, tix, mix, pos = [], [], [], []
    for a, T in enumerate(tuples):
        row = [None] * len(monos)
        for b, mono in enumerate(monos):
            if kind == "Q" and any(mono[t] for t in T):
                continue
            row[b] = len(labels)
            labels.append((T, mono))
            tix.append(a)
            mix.append(b)
        pos.append(row)
    xmaps = []
    for i in range(N):
        up = [mono_index.get(m[:i] + (m[i] + 1,) + m[i + 1:]) for m in monos]
        dead = [kind == "Q" and i in T for T in tuples]
        xmaps.append([None if dead[a] or up[b] is None else pos[a][up[b]]
                      for a, b in zip(tix, mix)])
    swaps = []
    for j in range(N - 1):
        tsw = [tuple_index[tuple(j + 1 if t == j else j if t == j + 1 else t for t in T)]
               for T in tuples]
        msw = [mono_index[m[:j] + (m[j + 1], m[j]) + m[j + 2:]] for m in monos]
        swaps.append([pos[tsw[a]][msw[b]] for a, b in zip(tix, mix)])
    grading = [tuple(e + s * (kind == "Q" and k in T) for k, e in enumerate(mono))
               for T, mono in labels]
    return labels, xmaps, swaps, grading, f"{kind}(s={s},n={n})", (kind, s, n)


@pytest.mark.parametrize("s", range(4))
def test_rank_arithmetic_matches_enumeration(s):
    for kind, N in itertools.product("PQ", range(6)):
        for n in range(N + 1):
            mod = (build_P if kind == "P" else build_Q)(s, n, N)
            got = (mod.labels, mod.xmaps, mod.swaps, mod.grading, mod.name, mod.family)
            assert got == _enumerated_pq(kind, s, n, N), (kind, s, n, N)


def test_q_build_does_not_enumerate_the_ring(monkeypatch):
    # Q(60, 1, 3) has 11,163 labels; the ring has 61^3 = 226,981 monomials
    import equivar.equivariant
    import equivar.truncated_ring

    calls = []
    for mod in (equivar.truncated_ring, equivar.equivariant):
        for name in ("all_monomials", "monomial_unrank"):
            if hasattr(mod, name):
                real = getattr(mod, name)
                monkeypatch.setattr(mod, name, lambda *a, real=real: calls.append(1) or real(*a))
    Q = build_Q(60, 1, 3)
    assert Q.dim == 3 * 61 ** 2 == pq_dimension("Q", 60, 1, 3)
    assert len(calls) < 61 ** 3
