import hashlib
import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivar.cli import _class_function_table
from equivar.combinat import ClassFunction, injections, partitions
from equivar.equivariant import (
    EquivModule,
    _build_family,
    _map_matrix,
    build_P,
    build_Q,
    character_of,
    direct_sum,
    filtration_layers,
    pq_dimension,
)
from equivar.homcalc import (
    AssemblyError,
    PQFamily,
    StableHomResult,
    coresolution_Q,
    ext_stable,
    ext_truncated,
    hom_mapping_property,
    stable_hom,
    tor_periodic,
    _family_keys,
    _family_stable_space,
    _grid_cohomology,
    _image_labels,
    _orbit_census,
    _orbit_relations,
    _orbit_size,
    _position_digits,
    _power_map,
    _slot_variable,
    _stable_ext,
    _strand_cohomology,
    _strand_complex,
    _tor_label_maps,
)
from equivar.linalg import (
    ONE,
    SpanBasis,
    SparseRationalMatrix,
    kernel_of_vectors,
    matrix_rank,
    nullspace,
    rank_of_vectors,
    vec_axpy,
)
from equivar.truncated_ring import RingConfig, representative_permutation
from reference import (
    MatrixModule,
    Subspace,
    _embed_vector,
    _ext_by_free_covers,
    _family_orbits,
    _free_cover,
    _group_walk,
    _hom_invariants_generic,
    _hom_keys,
    _kernel_module,
    _label_meets,
    _mapping_solutions,
    _mapping_solutions_generic,
    _quotient_by_radical,
    _resolution,
    _stable_subspace,
    _tuple_power_map,
    apply_columns,
    check_equivariance,
    column,
    columns,
    contains,
    coords,
    from_entries,
    hom_generic,
    identity,
    map_from_generator_value,
    matrix_module,
    power,
    regular_rep,
    residue,
    restrict,
    scale,
    trace_character,
)


def qq_expected(a, b):
    """Maps from the tuple-size-a family to the tuple-size-b family exist in
    bijection with b-tuples of distinct positions among the first a."""
    return factorial(a) // factorial(a - b) if b <= a else 0


# --- mapping property and generic solver --------------------------------------

def test_hom_generic_contains_identity():
    m = build_Q(1, 1, 2)
    maps = hom_generic(m, m)
    eye_found = False
    span = SpanBasis([{i * m.dim + i: ONE for i in range(m.dim)}], m.dim * m.dim)
    vecs = []
    for f in maps:
        vec = {}
        for (i, j, num, den) in f.matrix.to_triplets():
            vec[j * m.dim + i] = Fraction(num, den)
        vecs.append(vec)
    assert contains(SpanBasis(vecs, m.dim * m.dim), span.basis[0])
    assert len(maps) >= 1


def test_hom_generic_config_mismatch():
    with pytest.raises(ValueError):
        hom_generic(build_Q(1, 1, 2), build_Q(2, 1, 2))


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_generic_vs_mapping_property_cross_check(s, n, m):
    """The two Hom solvers agree: same dimension, and the generator values of
    the generic solutions span the mapping-property solution space."""
    N = 3
    src = build_Q(s, n, N)
    tgt = build_Q(s, m, N)
    generic = hom_generic(src, tgt)
    sols = hom_mapping_property(PQFamily("Q", s, n), tgt)
    assert len(generic) == len(sols)
    gen_label = src.label_index[(tuple(range(n)), (0,) * N)]
    values = [column(f.matrix, gen_label) for f in generic]
    span_a = SpanBasis(values, tgt.dim)
    span_b = SpanBasis(sols, tgt.dim)
    assert span_a == span_b


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _vector_triplets(vec):
    return sorted((k, v.numerator, v.denominator) for k, v in vec.items())


# digests of the generic solvers' exact outputs, recorded before their
# constraints were built from Kronecker products

def test_hom_generic_is_pinned():
    maps = hom_generic(build_Q(1, 1, 3), build_Q(1, 2, 3))
    assert len(maps) == 5
    assert (_digest([f.matrix.to_triplets() for f in maps])
            == "5cfbe2e82450d3a02a6d42f2934d99212e342a28948452ec02f95733578e5f70")


def test_hom_invariants_generic_is_pinned():
    basis = _hom_invariants_generic(regular_rep(3), build_P(1, 1, 3))
    assert len(basis) == 24
    assert (_digest([_vector_triplets(v) for v in basis])
            == "daa4edf5b7c3a3507e548eb34be43f61820b8d80f6a49d6e923514980bbebe94")


def _kernel_with_inclusion(F, d):
    """``_kernel_module(F, d)`` with its inclusion matrix into F, column t
    being kernel basis vector t."""
    K, basis = _kernel_module(F, d)
    return K, from_entries(
        F.dim, len(basis), [(r, t, v) for t, vec in enumerate(basis) for r, v in vec.items()])


def test_kernel_module_is_pinned():
    F, cover, _ = _free_cover(build_Q(1, 1, 3))
    K, B = _kernel_with_inclusion(F, cover.matrix)
    assert K.dim == 12
    assert (_digest({"module": K.to_json_dict(), "inclusion": B.to_triplets()})
            == "937322596759699915f09e5c6ede6659cbf6176645c5b43bf248a123ef318dad")


# digests of free covers, recorded before their actions were built from
# Kronecker products; the last module is matrix-only
FREE_COVER_PINS = {
    "Q113": (24, "8c1ebf3982455658395b61237e6d54b96e594ef59091862b8c24fcd326d1f4a2"),
    "P213": (81, "ed2f4b10f32fca84e4999117c21e4f51b14ab340c03a580f3d7b8092fbc6865c"),
    "Q123": (48, "0234173d70ccf7bb4ffefbf45f330c8fafbce412297064b3727f2d266e7e6eb0"),
    "kernel": (24, "f336cf4247c49edfb1853791aa72b408700c483f5834671ee8ae937552a6b648"),
}


@pytest.mark.parametrize("name,build", [
    ("Q113", lambda: build_Q(1, 1, 3)), ("P213", lambda: build_P(2, 1, 3)),
    ("Q123", lambda: build_Q(1, 2, 3)), ("kernel", lambda: _kernel_of_cover(build_Q(1, 1, 3))),
], ids=["Q113", "P213", "Q123", "kernel"])
def test_free_cover_is_pinned(name, build):
    F, cover, rep = _free_cover(build())
    assert (F.dim, _digest({"xmul": [m.to_triplets() for m in F.xmul],
                            "coxeter": [m.to_triplets() for m in F.coxeter],
                            "cover": cover.matrix.to_triplets(),
                            "rep": [m.to_triplets() for m in rep.coxeter]})) == FREE_COVER_PINS[name]


def test_mapping_property_rejects_p_sources():
    with pytest.raises(ValueError):
        hom_mapping_property(PQFamily("P", 1, 1), build_Q(1, 1, 2))


def test_map_from_generator_value_is_equivariant():
    s, n, N = 1, 1, 3
    src = build_Q(s, n, N)
    tgt = build_Q(s, 1, N)
    for v in hom_mapping_property(PQFamily("Q", s, n), tgt):
        check_equivariance(map_from_generator_value(PQFamily("Q", s, n), src, tgt, v))


def _targets(s, m, N):
    """P, Q and direct-sum targets that carry label maps."""
    from equivar.equivariant import direct_sum

    return [build_Q(s, m, N), build_P(s, m, N),
            direct_sum([build_Q(s, m, N), build_P(s, max(m - 1, 0), N)])]


def test_fast_path_matches_elimination():
    # the label-map solver against the reference elimination, for Q sources
    # and for P sources (as in cas_cat.compare_with_P_homs), with the source
    # bound above, at and below the target's
    for kind, r_shift in itertools.product("QP", (-1, 0, 1)):
        for s, n, m, N in [(1, 1, 1, 3), (1, 2, 1, 3), (2, 1, 2, 3)]:
            profile = PQFamily(kind, s - r_shift, n)
            for tgt in _targets(s, m, N):
                fast = _mapping_solutions(profile, tgt)
                slow = _mapping_solutions_generic(profile, tgt)
                assert SpanBasis(fast, tgt.dim) == SpanBasis(slow, tgt.dim)


def _solver_pin_cases():
    """(profile, target) pairs for the orbit solver's pin: Q, P, direct-sum
    and filtration-layer targets, P and Q sources, the source bound below,
    at and above the target's."""
    for kind, r_shift in itertools.product("QP", (-1, 0, 1)):
        for s, n, m, N in [(1, 1, 1, 3), (1, 2, 1, 3), (2, 1, 2, 3), (2, 2, 1, 4), (1, 0, 2, 4)]:
            profile = PQFamily(kind, s - r_shift, n)
            for tgt in _targets(s, m, N) + filtration_layers(s, m, N)[1]:
                yield profile, tgt


def test_mapping_solutions_are_pinned():
    # the orbit solver's exact output, basis order and entries, recorded
    # before it moved to flat arrays
    rows = [[list(v.items()) for v in _mapping_solutions(profile, tgt)]
            for profile, tgt in _solver_pin_cases()]
    assert sum(map(len, rows)) == 2985
    assert _digest(rows) == "c76348e4a6ba3e4416db091b8608f58866ed5ca780bb4b4c79af9415786bfa53"


def _naive_power_map(cm, k):
    out = list(range(len(cm)))
    for _ in range(k):
        out = [None if t is None else cm[t] for t in out]
    return out


def _random_partial_injection(rng, dim):
    images = rng.sample(range(dim), rng.randint(0, dim))
    sources = rng.sample(range(dim), len(images))
    cm = [None] * dim
    for t, u in zip(sources, images):
        cm[t] = u
    return cm


def test_power_map_matches_repeated_composition():
    # repeated squaring against k compositions, k = 0 and k past the point
    # where x^(s+1) kills every label included
    rng = random.Random(17)
    maps = [cm for mod in (build_P(2, 1, 3), build_Q(3, 1, 3), build_Q(1, 2, 4))
            for cm in mod.xmaps + mod.swaps]
    maps += [_random_partial_injection(rng, rng.randint(0, 40)) for _ in range(40)]
    for cm in maps:
        for k in (*range(10), 13, 16, 31):
            assert _power_map(cm, k) == _naive_power_map(cm, k)


@pytest.mark.parametrize("kind", ["Q", "P"])
def test_stable_subspace_maps_match_blocks(kind):
    """_stable_subspace returns the same basis on a matrix-only copy of the
    modules, where it reduces each push modulo the level-(N+1) span."""
    for s, n, m, N, r in [(1, 1, 1, 3, 1), (1, 2, 1, 3, 1), (2, 1, 2, 3, 2),
                          (1, 0, 1, 2, 1), (2, 1, 1, 3, 1), (1, 1, 1, 3, 0)]:
        profile = PQFamily(kind, r, n)
        for small, big in zip(_targets(s, m, N), _targets(s, m, N + 1)):
            sols = _mapping_solutions(profile, small)
            big_sols = _mapping_solutions(profile, big)
            plain_small, plain_big = matrix_module(small), matrix_module(big)
            stable = _stable_subspace(sols, big_sols, small, big)
            reference = _stable_subspace(sols, big_sols, plain_small, plain_big)
            assert stable == reference


def test_orbit_relations_on_merged_orbits():
    # in the P and Q families no level-(N+1) orbit holds two pushed orbits,
    # so the equal-coefficient relation is checked here on random disjoint
    # orbits, several of them inside one big orbit, against the residues
    rng = random.Random(5)
    for trial in range(300):
        labels = list(range(rng.randint(1, 12)))
        rng.shuffle(labels)
        cuts = sorted(rng.sample(range(1, len(labels)), rng.randint(0, len(labels) - 1)))
        blocks = [labels[i:j] for i, j in zip([0] + cuts, cuts + [len(labels)])]
        pushed = [{t: ONE for t in blk} for blk in blocks if rng.random() < 0.8]
        big, pool = [], list(blocks)
        while pool:
            merged = [t for _ in range(rng.randint(1, 3)) if pool for t in pool.pop()]
            if rng.random() < 0.7:
                big.append({t: ONE for t in merged})
        span = SpanBasis(big, len(labels))
        columns = _orbit_relations(len(pushed), _label_meets(pushed, big), [len(b) for b in big])
        assert kernel_of_vectors(columns) == kernel_of_vectors([residue(span, w) for w in pushed])


@pytest.mark.parametrize("s", [0, 1, 2])
def test_orbit_relations_match_the_residue_path(s):
    # the orbit relations over label maps against the residue of each push
    # modulo the span of the generic solver's level-(N+1) solutions, on a
    # matrix-only copy: the same list, not only the same span
    for kind, r in [("Q", s), ("P", s)] + ([("Q", s - 1)] if s else []):
        for n, m in itertools.product(range(3), repeat=2):
            for N in range(max(n, m, 1), 4):
                profile = PQFamily(kind, r, n)
                for small, big in zip(_targets(s, m, N), _targets(s, m, N + 1)):
                    sols = _mapping_solutions(profile, small)
                    stable = _stable_subspace(sols, _mapping_solutions(profile, big), small, big)
                    plain_big = matrix_module(big)
                    reference = _stable_subspace(
                        sols, _mapping_solutions_generic(profile, plain_big),
                        matrix_module(small), plain_big)
                    assert stable == reference, (kind, r, n, m, N, big.name)


def _items(vectors):
    return [list(v.items()) for v in vectors]


@pytest.mark.parametrize("kind", ["P", "Q"])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_family_stable_space_matches_the_module_path(kind, s):
    # the label arithmetic of a P/Q target against its built modules, the
    # same lists (order and entries): the orbits against the orbit solver for
    # N <= 5; for N <= 4 the push of each orbit (_embed_vector) lies in the
    # level-(N+1) orbit listed under its key with one more 0, or in no
    # solution when none is listed there, the counted level-(N+1) orbits
    # are the solver's, and the stable space is _stable_subspace's; for P
    # and Q sources with m <= 3 and the bound one below, at and above s
    family_of = {"P": build_P, "Q": build_Q}[kind]
    for n in range(4):
        modules = {N: family_of(s, n, N) for N in range(n, 6)}
        for N, T in modules.items():
            big = modules.get(N + 1)
            for src_kind, m, r in itertools.product("PQ", range(min(3, N) + 1), (s - 1, s, s + 1)):
                if r < 0:
                    continue
                profile = PQFamily(src_kind, r, m)
                sols = _mapping_solutions(profile, T)
                orbits, keys = _family_orbits(profile, (kind, s, n), N)
                assert _items(orbits) == _items(sols)
                if big is None:
                    continue
                big_sols = _mapping_solutions(profile, big)
                big_orbits, big_keys = _family_orbits(profile, (kind, s, n), N + 1)
                listed = dict(zip(big_keys, big_orbits))
                solved = {t for vec in big_sols for t in vec}
                for orbit, (pattern, low_ds, slot_ds, multiset) in zip(orbits, keys):
                    pushed = _embed_vector(orbit, T, big)
                    into = listed.get((pattern, low_ds, slot_ds, (0, *multiset)))
                    if into is None:
                        assert solved.isdisjoint(pushed)
                    else:
                        assert pushed.keys() <= into.keys()
                got = _family_stable_space(profile, (kind, s, n), N)
                assert got[1] == len(big_sols)
                assert [got[0], _items(got[2])] == [
                    len(sols), _items(_stable_subspace(sols, big_sols, T, big))]


@pytest.mark.parametrize("kind", ["P", "Q"])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_family_orbit_count_and_sizes_match_the_listing(kind, s):
    # the counted orbits against the listed ones, and the size that each key
    # gives against its orbit's labels, for P and Q sources with m <= 3 and
    # the bound one below, at and above s, for N <= 6, and N = 7 where the
    # target has at most 20,000 labels
    for n in range(4):
        for N in range(n, 8):
            if N == 7 and pq_dimension(kind, s, n, N) > 20_000:
                continue
            for src_kind, m, r in itertools.product("PQ", range(min(3, N) + 1), (s - 1, s, s + 1)):
                if r < 0:
                    continue
                profile = PQFamily(src_kind, r, m)
                orbits, keys = _family_orbits(profile, (kind, s, n), N)
                # the first N entries at N+1 are the digits at N, and there is
                # a high position even when m = N
                digits = _position_digits(profile, s, N + 1)
                census = _orbit_census(kind, n, m, N, len(digits[m]))
                assert sum(keys * len(digits[0]) ** k for k, keys in census.items()) == len(orbits)
                assert [_orbit_size(key, m, N) for key in keys] == list(map(len, orbits))


def _listing_grid(kind, s):
    """(profile, family, N) on the grid of the count/size test above."""
    for n in range(4):
        for N in range(n, 8):
            if N == 7 and pq_dimension(kind, s, n, N) > 20_000:
                continue
            for src_kind, m, r in itertools.product("PQ", range(min(3, N) + 1), (s - 1, s, s + 1)):
                if r >= 0:
                    yield PQFamily(src_kind, r, m), (kind, s, n), N


@pytest.mark.parametrize("kind", ["P", "Q"])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_family_keys_match_the_listing(kind, s):
    # each keyed row against the listed unslotted orbit (no None in its slot
    # pattern) in its place: the first label is the orbit's smallest, the key
    # is the listed key, the size at N is the orbit's length, and the size at
    # N+1 is that of the key with one more 0; on the grid of the count/size
    # test above
    for profile, family, N in _listing_grid(kind, s):
        m = profile.n
        orbits, keys = _family_orbits(profile, family, N)
        unslotted = [(orbit, key) for orbit, key in zip(orbits, keys) if None not in key[0]]
        rows = _family_keys(profile, family, N, _position_digits(profile, s, N))
        assert len(rows) == len(unslotted)
        for (first, key, size, big_size), (orbit, listed_key) in zip(rows, unslotted):
            pattern, low_ds, slot_ds, multiset = listed_key
            assert (first, key, size) == (min(orbit), listed_key, len(orbit))
            assert big_size == _orbit_size(
                (pattern, low_ds, slot_ds, (0, *multiset)), m, N + 1)


@pytest.mark.parametrize("kind", ["P", "Q"])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_slotted_orbits_grow_at_the_next_level(kind, s):
    # the orbits that _family_keys leaves out are never kept: the level-(N+1)
    # orbit that a slotted orbit pushes into is strictly larger, so the push
    # never covers it; on the grid of the count/size test above
    for profile, family, N in _listing_grid(kind, s):
        m = profile.n
        _, keys = _family_orbits(profile, family, N)
        for pattern, low_ds, slot_ds, multiset in keys:
            if None in pattern:
                assert _orbit_size((pattern, low_ds, slot_ds, (0, *multiset)), m, N + 1) > \
                    _orbit_size((pattern, low_ds, slot_ds, multiset), m, N)


def test_family_stable_space_refuses_a_kept_orbit_of_several_labels(monkeypatch):
    # with no relation every keyed orbit is kept, and Q(1, 1, 3) has an
    # unslotted orbit of two labels (multiset (0, 1)) under a Q source of
    # tuple size 1
    profile, family = PQFamily("Q", 1, 1), ("Q", 1, 1)
    rows = _family_keys(profile, family, 3, _position_digits(profile, 1, 3))
    assert max(row[2] for row in rows) > 1
    monkeypatch.setattr("equivar.homcalc._orbit_relations",
                        lambda count, meets, sizes: [{} for _ in range(count)])
    with pytest.raises(AssemblyError, match="more than one label"):
        _family_stable_space(profile, family, 3)


def test_family_orbits_raise_the_module_path_errors():
    for (kind, build), orbits_of in itertools.product((("P", build_P), ("Q", build_Q)),
                                                      (_family_orbits, _family_stable_space)):
        with pytest.raises(ValueError) as built:
            build(1, 3, 2)
        with pytest.raises(ValueError) as helper:
            orbits_of(PQFamily("Q", 1, 1), (kind, 1, 3), 2)
        assert str(helper.value) == str(built.value)
        with pytest.raises(ValueError) as solved:
            _mapping_solutions(PQFamily("Q", 1, 3), build(1, 1, 2))
        with pytest.raises(ValueError) as helper:
            orbits_of(PQFamily("Q", 1, 3), (kind, 1, 1), 2)
        assert str(helper.value) == str(solved.value)


# --- stabilization -------------------------------------------------------------

@pytest.mark.parametrize("s", [1, 2])
def test_stable_qq_dimensions_small_grid(s):
    for a in range(3):
        for b in range(3):
            N = max(a, b) + 2
            r = stable_hom(PQFamily("Q", s, a), PQFamily("Q", s, b), N)
            assert r.dim_stable == qq_expected(a, b)
            assert r.dim_stable <= min(r.dim_at_N, r.dim_at_N_plus_1)


def test_stable_hom_identity_survives():
    r = stable_hom(PQFamily("Q", 1, 1), PQFamily("Q", 1, 1), 3)
    assert r.dim_stable == 1
    assert r.dim_at_N >= 1


def test_stable_hom_example_dimension_two():
    # two stable maps from the pair family into the singleton family
    r = stable_hom(PQFamily("Q", 1, 2), PQFamily("Q", 1, 1), 4)
    assert r.dim_stable == 2


def test_stable_hom_into_larger_tuple_vanishes():
    r = stable_hom(PQFamily("Q", 1, 1), PQFamily("Q", 1, 2), 4)
    assert r.dim_stable == 0
    assert r.dim_at_N > 0  # truncation junk removed by stabilization


def test_stable_hom_zero_target_tuple():
    r = stable_hom(PQFamily("Q", 0, 0), PQFamily("Q", 0, 1), 2)
    assert r.dim_stable == 0


def test_stable_basis_is_the_twisted_injection_basis():
    # the stable solutions for maps (a-family) -> (b-family) are the vectors
    # prod_{j < a, j not in U} x_j^s  e_U over b-tuples U inside the first a
    s, a, b, N = 1, 2, 1, 4
    tgt = build_Q(s, b, N)
    r = stable_hom(PQFamily("Q", s, a), PQFamily("Q", s, b), N)
    expected = []
    for U in itertools.permutations(range(a), b):
        mono = [0] * N
        for j in range(a):
            if j not in U:
                mono[j] = s
        expected.append({tgt.label_index[(U, tuple(mono))]: ONE})
    assert SpanBasis(r.basis, tgt.dim) == SpanBasis(expected, tgt.dim)


def test_stable_qp_matches_qq():
    for s in (1, 2):
        for a in range(3):
            for b in range(3):
                N = max(a, b) + 2
                rp = stable_hom(PQFamily("Q", s, a), PQFamily("P", s, b), N)
                rq = stable_hom(PQFamily("Q", s, a), PQFamily("Q", s, b), N)
                assert rp.dim_stable == rq.dim_stable == qq_expected(a, b)


def test_stable_vanishing_for_smaller_bound_sources():
    for s in (1, 2):
        for m in range(3):
            for n in range(3):
                N = max(m, n) + 2
                r = stable_hom(PQFamily("Q", s - 1, m), PQFamily("P", s, n), N)
                assert r.dim_stable == 0


def _stable_hom_grid():
    """The stable-hom benchmark grid: Q into Q and P, lower-bound Q into P,
    and P into P, each at the N the benchmark uses."""
    grid = {"qq-qp": [], "lower-bound": [], "p-source": []}
    for s in (1, 2):
        for a, b in itertools.product(range(4), repeat=2):
            for kind in "QP":
                grid["qq-qp"].append((("Q", s, a), (kind, s, b), max(a, b) + 2))
        for m, n in itertools.product(range(3), repeat=2):
            grid["lower-bound"].append((("Q", s - 1, m), ("P", s, n), max(m, n) + 2))
            grid["p-source"].append((("P", s, n), ("P", s, m), n + m + 1))
    return grid


# sha256 of (dim_at_N, dim_at_N_plus_1, dim_stable, basis) over each part of
# the grid, recorded before stabilization read the level-(N+1) solutions
STABLE_HOM_DIGESTS = {
    "qq-qp": "bdd9a950f2b3695ec5cb821228c1256ae1d91a90559acaf2ae8b4c27cf9e876d",
    "lower-bound": "53ccdf9427e7c8335879043701ea1136e0eee49e092c4ff3ab247d5f3f62a8cd",
    "p-source": "b3f5cbf6ab85089f5315a17749fd1b6e398c11f20240fd52fdf5d89f2dd4a026",
}


@pytest.mark.parametrize("part", sorted(STABLE_HOM_DIGESTS))
def test_stable_hom_grid_is_pinned(part):
    rows = []
    for src, tgt, N in _stable_hom_grid()[part]:
        r = stable_hom(PQFamily(*src), PQFamily(*tgt), N)
        rows.append([r.dim_at_N, r.dim_at_N_plus_1, r.dim_stable,
                     [_vector_triplets(v) for v in r.basis]])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == STABLE_HOM_DIGESTS[part]


def test_stable_result_invariant_guard():
    with pytest.raises(AssemblyError):
        StableHomResult(1, 1, 2, [])


# --- coresolutions -------------------------------------------------------------

def test_coresolution_singleton_shapes_and_ranks():
    cx = coresolution_Q(2, 1, 2, 4)
    assert [m.dim for m in cx.modules] == [6, 18, 18, 18, 18]
    # embedding has full rank; differentials alternate the two multiplications
    assert cx.ranks() == [6, 12, 6, 12]


def test_coresolution_alternation_for_square_zero_bound():
    # at bound one the two alternating multiplications coincide
    cx = coresolution_Q(1, 1, 2, 3)
    d1, d2 = cx.maps[1].matrix, cx.maps[2].matrix
    assert d1 == d2


def test_coresolution_collapses_at_bound_zero():
    cx = coresolution_Q(0, 1, 2, 3)
    assert [m.dim for m in cx.modules] == [2, 2, 0, 0]
    assert matrix_rank(cx.maps[0].matrix) == 2  # the head is an isomorphism


def test_coresolution_tensor_term_sizes():
    cx = coresolution_Q(1, 2, 3, 4)
    p_dim = build_P(1, 2, 3).dim
    assert [m.dim for m in cx.modules] == [12, p_dim, 2 * p_dim, 3 * p_dim, 4 * p_dim]


def test_coresolution_equivariance_of_maps():
    cx = coresolution_Q(1, 2, 2, 3)
    for f in cx.maps:
        check_equivariance(f)


def test_coresolution_needs_positive_length():
    with pytest.raises(ValueError):
        coresolution_Q(1, 1, 2, 0)


# --- stable Ext ------------------------------------------------------------------

@pytest.mark.parametrize("s", [1, 2])
def test_stable_self_ext_singleton(s):
    assert ext_stable(s, 1, 1, 3, 3) == [1, 1, 1, 1]


def test_stable_ext_degree_zero_is_hom():
    assert ext_stable(1, 1, 1, 3, 0) == [1]


def test_stable_ext_vanishes_at_bound_zero():
    assert ext_stable(0, 1, 1, 3, 3) == [1, 0, 0, 0]


# ext_stable(s, a, b, N, 2) for a in 0..3, b in 0..2, row-major in (a, b),
# the same at N = 2, 3, 4 (a <= N); recorded before stable Ext solved one P
# per coresolution term
EXT_STABLE_TABLE = {
    0: [[1, 0, 0], [0, 0, 0], [0, 0, 0], [1, 0, 0], [1, 0, 0], [0, 0, 0],
        [1, 0, 0], [2, 0, 0], [2, 0, 0], [1, 0, 0], [3, 0, 0], [6, 0, 0]],
    1: [[1, 0, 0], [0, 0, 0], [0, 0, 0], [1, 0, 0], [1, 1, 1], [0, 0, 0],
        [1, 0, 0], [2, 2, 2], [2, 4, 6], [1, 0, 0], [3, 3, 3], [6, 12, 18]],
    2: [[1, 0, 0], [0, 0, 0], [0, 0, 0], [1, 0, 0], [1, 1, 1], [0, 0, 0],
        [1, 0, 0], [2, 2, 2], [2, 4, 6], [1, 0, 0], [3, 3, 3], [6, 12, 18]],
}


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("s", sorted(EXT_STABLE_TABLE))
def test_ext_stable_table_is_pinned(s, N):
    for a in range(min(3, N) + 1):
        for b in range(3):
            expected = EXT_STABLE_TABLE[s][3 * a + b]
            for max_i in range(3):
                assert ext_stable(s, a, b, N, max_i) == expected[:max_i + 1], (a, b, max_i)


# sha256 of the term dimensions, labels and differentials, recorded before
# coresolution_Q took its modules from the embedding and wrote each entry once
CORESOLUTION_DIGESTS = {
    (0, 1, 2, 3): "80afc8e5c1a0c955237f13a87f71ad0b33956bb0ccc2bd066e9e41739628d6ef",
    (1, 1, 2, 4): "8e47b16579ae52eade1733965fc27d95fe5ad3fe0e64474861b3e76c6238dde4",
    (2, 1, 3, 4): "c0b2d8242a433cae3e840bb010c5669df7549174a9a6192c377b8007e730152f",
    (1, 2, 3, 4): "8e1ee2d45b2a207e85205ed07cace803079d7f7ddb2ce24b829806dfa755b254",
    (2, 2, 3, 3): "7ea9b493cb8c0a2da939b8a76642ef594ec305c768b4ed0abc821533dfd0a254",
    (1, 3, 3, 3): "c5af0a41f097cf195156b34dcca251c2978d10fd6e6856c61500ae222feb4c74",
    (1, 0, 2, 3): "3317ce99de26d896cab10aa2e6bb8bf9ccea8bdc25862167f59233d1c6148d3a",
}


@pytest.mark.parametrize("params", sorted(CORESOLUTION_DIGESTS))
def test_coresolution_is_pinned(params):
    cx = coresolution_Q(*params)
    h = hashlib.sha256()
    h.update(json.dumps([m.dim for m in cx.modules]).encode())
    h.update(json.dumps([[repr(lab) for lab in m.labels] for m in cx.modules]).encode())
    h.update(json.dumps([f.matrix.to_triplets() for f in cx.maps]).encode())
    assert h.hexdigest() == CORESOLUTION_DIGESTS[params]


@pytest.mark.parametrize("s,n_source,n_target,N,length", [
    (0, 1, 1, 3, 3), (1, 1, 0, 2, 3), (1, 2, 1, 3, 4), (1, 2, 2, 3, 4), (2, 2, 2, 2, 3),
    (2, 3, 2, 3, 3), (1, 1, 3, 3, 3),
])
def test_term_spaces_match_the_direct_sums(s, n_source, n_target, N, length):
    # the reference solves every term as a whole direct sum against the
    # matching term of the level-(N+1) coresolution; each space under test
    # is P's stable space placed in each copy of P, the cochains of the
    # strand complex over that space whose cohomology ext_stable takes
    src = PQFamily("Q", s, n_source)
    cx = coresolution_Q(s, n_target, N, length)
    cx_big = coresolution_Q(s, n_target, N + 1, length)
    P, P_big = cx.modules[1], build_P(s, n_target, N + 1)
    stable = _stable_subspace(_mapping_solutions(src, P), _mapping_solutions(src, P_big),
                              P, P_big)
    spaces = [[{c * P.dim + t: v for t, v in vec.items()}
               for c in range(T.dim // P.dim) for vec in stable] for T in cx.modules[1:]]
    assert len(spaces) == length
    for space, T, T_big in zip(spaces, cx.modules[1:], cx_big.modules[1:]):
        ref = (_stable_subspace(_mapping_solutions(src, T), _mapping_solutions(src, T_big), T, T_big)
               if T.dim else [])
        assert len(space) == len(ref)
        assert SpanBasis(space, T.dim) == SpanBasis(ref, T.dim)


def test_ext_stable_matches_the_closed_form():
    # Ext^i between the Q families of tuple sizes a and b (s >= 1) is one
    # copy of Hom per composition of i into b parts; with s = 0 or b = 0 it
    # is Hom in degree 0 and nothing above
    for s in range(4):
        for a in range(5):
            for b in range(4):
                copies = [comb(i + b - 1, b - 1) if s and b else int(i == 0) for i in range(4)]
                for N in range(max(a, b, 1), 6):
                    assert ext_stable(s, a, b, N, 3) == [qq_expected(a, b) * c for c in copies], \
                        (s, a, b, N)


def test_ext_stable_is_stable_at_large_N():
    # the closed form above at every N up to 12, where P(3, 3, 12) has about
    # 2.2e10 labels, so S's labels are read off the arithmetic, never listed
    requests = 0
    for s, a, b in itertools.product(range(1, 4), range(4), range(4)):
        copies = [comb(i + b - 1, b - 1) if b else int(i == 0) for i in range(4)]
        for N in range(max(a, b, 1), 13):
            assert ext_stable(s, a, b, N, 3) == [qq_expected(a, b) * c for c in copies], \
                (s, a, b, N)
            requests += 1
    assert requests == 519


def test_stable_ext_of_a_free_source_is_its_hom(monkeypatch):
    # P(s, a) is free, so its stable Ext into Q(s, b) is Hom in degree 0,
    # the Sym{a, ..., N-1}-orbits of Q(s, b, N), as many as Q(s, b, a) has
    # labels; S is then whole grids [0..s]^b of slot digits
    lows = []
    grid = _grid_cohomology

    def spy(s, strands, length, low):
        lows.append((strands, low))
        return grid(s, strands, length, low)

    monkeypatch.setattr("equivar.homcalc._grid_cohomology", spy)
    for s, a, b in itertools.product(range(1, 4), range(4), range(4)):
        hom = pq_dimension("Q", s, b, a) if b <= a else 0
        for N in range(max(a, b, 1), 7):
            assert _stable_ext(PQFamily("P", s, a), s, b, N, 5) == [hom, 0, 0, 0], (s, a, b, N)
    assert (3, 3) in lows  # the grid path runs, not only zero slot variables


def test_large_stable_ext_allocates_little():
    # in a fresh interpreter, so no cache of an earlier test is counted; one
    # label map over all of P(2, 2, 12) (7e7 labels) would take over 500 MB,
    # while the six labels of S and their grid take about 0.4 MB
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (f"import sys, tracemalloc; sys.path.insert(0, {src!r}); "
            "from equivar.homcalc import ext_stable; tracemalloc.start(); "
            "dims = ext_stable(2, 3, 2, 12, 3); "
            "print(dims, tracemalloc.get_traced_memory()[1])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    dims, peak = out.stdout.rsplit(" ", 1)
    assert dims == "[6, 12, 18, 24]"
    assert int(peak) < 4 * 2 ** 20


@pytest.mark.parametrize("s", range(4))
def test_slot_variable_matches_the_p_module(s):
    # on every label, with each power up to s, and on every other label with
    # the rest of the map None, against the slot variable read off the built
    # P module
    for N in range(1, 4):
        for n in range(1, N + 1):
            P = build_P(s, n, N)
            for pos in range(n):
                whole = _slot_variable(s, N, injections(n, N), range(P.dim), pos)
                for exp in range(1, s + 1):
                    assert _power_map(whole, exp) == _tuple_power_map(P, pos, exp)
                half = _slot_variable(s, N, injections(n, N), range(1, P.dim, 2), pos)
                assert half == [u if t % 2 else None
                                for t, u in enumerate(_tuple_power_map(P, pos, 1))]


def _ext_stable_by_coresolution(s, n_source, n_target, N, max_degree, complexes):
    """Stable Ext with the slot variables read off the P term of
    ``coresolution_Q``, which builds the complex and checks its composites
    and exactness; complexes holds the ones built so far."""
    if max_degree < 0:
        raise ValueError("the degree bound must be nonnegative")
    key = (s, n_target, N, max_degree + 2)
    if key not in complexes:
        complexes[key] = coresolution_Q(*key)
    P = complexes[key].modules[1]
    _, _, stable = _family_stable_space(PQFamily("Q", s, n_source), ("P", s, n_target), N)
    sub = Subspace(stable, P.dim)
    xs = [sub.restrict(_tuple_power_map(P, pos, 1)) for pos in range(n_target)]
    return _strand_cohomology(s, n_target, max_degree + 2, sub.dim,
                              lambda pos, exp: power(xs[pos], exp))


def _ext_stable_bench_grid():
    """The requests (s, a, b, N, max_i) of perfbench's ext-stable workload."""
    for s, a, b, N, max_i in itertools.product((1, 2), range(4), (1, 2), (3, 4), (2, 3)):
        if N >= max(a, b) + 1 and not (s == 2 and N == 4 and b == 2):
            yield s, a, b, N, max_i


EXT_STABLE_GRIDS = {
    "bench": list(_ext_stable_bench_grid()),
    "table": [(s, a, b, N, max_i) for s in EXT_STABLE_TABLE for N in (2, 3, 4)
              for a in range(min(3, N) + 1) for b in range(3) for max_i in range(3)],
    "invalid": [(-1, 1, 1, 3, 2), (1, -1, 1, 3, 2), (1, 1, -1, 3, 2), (1, 1, 1, -1, 2),
                (1, 1, 1, 3, -1), (-1, -1, -1, -1, -1), (1, 5, 1, 3, 2), (1, 1, 5, 3, 2),
                (1, 5, 5, 3, 2), (1, -1, 5, 3, 2), (1, 5, -1, 3, 2), (2, 1, 0, 0, 2),
                (2, 0, 1, 0, 2)],
}


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return f"ValueError: {e}"


@pytest.mark.parametrize("grid", sorted(EXT_STABLE_GRIDS))
def test_ext_stable_matches_the_coresolution_path(grid):
    complexes = {}
    for case in EXT_STABLE_GRIDS[grid]:
        assert (_outcome(ext_stable, *case)
                == _outcome(_ext_stable_by_coresolution, *case, complexes)), case
    if grid == "bench":
        assert len(complexes) == 14


def test_stable_ext_matches_the_subspace_reference():
    # the label list against S held in the reference Subspace of the built
    # P, each slot variable read off P's label maps, restricted to S (which
    # checks that it keeps S) and raised to powers as a matrix: P and Q
    # profiles at r in {s-1, s, s+1}, a, b <= 3, N <= 5 and dim P <= 20,000,
    # with the ValueErrors of the requests that no module carries
    moving = []

    def on_subspace(profile, s, n, N, length):
        _, _, stable = _family_stable_space(profile, ("P", s, n), N)
        labels = [t for v in stable for t in v]
        assert labels == sorted(labels)
        P = _build_family("P", s, n, N)
        sub = Subspace(stable, P.dim)
        xs = [sub.restrict(_tuple_power_map(P, pos, 1)) for pos in range(n)]
        moving.extend(x for x in xs if not x.is_zero())
        return _strand_cohomology(s, n, length, sub.dim, lambda pos, exp: power(xs[pos], exp))

    answered = 0
    for s, kind in itertools.product(range(1, 4), "PQ"):
        for r, a, b, N in itertools.product((s - 1, s, s + 1), range(4), range(4), range(1, 6)):
            if b <= N and pq_dimension("P", s, b, N) > 20000:
                continue
            profile = PQFamily(kind, r, a)
            got = _outcome(_stable_ext, profile, s, b, N, 4)
            assert got == _outcome(on_subspace, profile, s, b, N, 4), (profile, s, b, N)
            answered += not isinstance(got, str)
    assert answered == 1050
    assert moving  # some slot variable acts on S, so the check is not of zero maps


def test_stable_ext_certifies_its_labels_and_their_closure(monkeypatch):
    # P(1, 1) into P(1, 1) at N = 2: S is labels 0 and 1, and x_0 sends 0 to 1
    profile = PQFamily("P", 1, 1)
    dim, big, stable = _family_stable_space(profile, ("P", 1, 1), 2)
    assert stable == [{0: 1}, {1: 1}]
    assert _stable_ext(profile, 1, 1, 2, 4) == [1, 0, 0]
    for space, message in (([{0: 1}], "leaves S"), ([{0: 1, 1: 1}], "single label"),
                           ([{0: 2}, {1: 1}], "single label")):
        monkeypatch.setattr("equivar.homcalc._family_stable_space",
                            lambda *args, space=space: (dim, big, space))
        with pytest.raises(AssemblyError, match=message):
            _stable_ext(profile, 1, 1, 2, 4)


def test_stable_ext_certifies_copies_of_one_grid(monkeypatch):
    # P(2, 1) into P(2, 1) at N = 2 with S = labels 1 and 2, slot digits 1
    # and 2: raising keeps S, but S is neither all top digits nor whole grids
    profile = PQFamily("P", 2, 1)
    dim, big, stable = _family_stable_space(profile, ("P", 2, 1), 2)
    assert [t for v in stable for t in v] == [0, 1, 2]
    assert _stable_ext(profile, 2, 1, 2, 4) == [1, 0, 0]
    monkeypatch.setattr("equivar.homcalc._family_stable_space",
                        lambda *args: (dim, big, [{1: ONE}, {2: ONE}]))
    with pytest.raises(AssemblyError, match="copies of one grid"):
        _stable_ext(profile, 2, 1, 2, 4)


@pytest.mark.parametrize("s", range(1, 4))
def test_slot_variable_on_the_grid_raises_one_digit(s):
    # x_pos on the grid [0..s]^k, the first digit the slowest, against the
    # digit tuples listed by itertools.product
    for k in range(5):
        grid = list(itertools.product(range(s + 1), repeat=k))
        index = {d: t for t, d in enumerate(grid)}
        for pos in range(k):
            expected = [index[d[:pos] + (d[pos] + 1,) + d[pos + 1:]] if d[pos] < s else None
                        for d in grid]
            assert _slot_variable(s, k, [tuple(reversed(range(k)))], range(len(grid)), pos) \
                == expected


def test_ext_stable_builds_no_module(monkeypatch):
    built = []
    init = EquivModule.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(EquivModule, "__init__", counting)
    _build_family.cache_clear()  # else an earlier test's Q(1, 1, 2) answers from the cache
    build_Q(1, 1, 2).labels
    assert built == [1]  # the wrap is live
    built.clear()
    for grid in ("bench", "table"):
        for case in EXT_STABLE_GRIDS[grid]:
            ext_stable(*case)
    assert built == []


def test_ext_self_suite_builds_the_coresolutions(monkeypatch):
    from equivar import verify

    built = []
    monkeypatch.setattr(verify, "coresolution_Q",
                        lambda *args: built.append(args) or coresolution_Q(*args))
    checks = verify.run_suite("ext-self", 5)
    assert len(checks) == 2 and all(c["ok"] for c in checks)
    assert built == [(1, 1, 3, 5), (2, 1, 3, 5)]


# --- truncated Ext ---------------------------------------------------------------

def test_ext_truncated_vanishing_examples():
    q = build_Q(1, 1, 3)
    p = build_P(1, 2, 3)
    ext = ext_truncated(q, p, 2)
    assert ext[1] == 0 and ext[2] == 0
    # degree zero agrees with the direct truncation-level solve
    assert ext[0] == len(_mapping_solutions(PQFamily("Q", 1, 1), p))


def test_ext_truncated_identity_in_degree_zero():
    p = build_P(1, 1, 2)
    ext = ext_truncated(p, p, 1)
    assert ext[0] >= 1
    assert ext[1] == 0


def test_ext_truncated_self_ext_diagnostic_runs():
    q = build_Q(1, 1, 2)
    ext = ext_truncated(q, q, 2)
    assert len(ext) == 3
    assert all(isinstance(v, int) and v >= 0 for v in ext)
    assert ext[0] == len(_mapping_solutions(PQFamily("Q", 1, 1), q))


def test_ext_truncated_config_mismatch():
    with pytest.raises(ValueError):
        ext_truncated(build_Q(1, 1, 2), build_P(1, 1, 3), 1)


def _label_key(label, kind, m):
    """The orbit key under Sym{m, ..., N-1} of the label (U, mono) of a P or
    Q module, read off the label itself: slot pattern, low digits, slot
    digits (P only), sorted multiset of the other high digits."""
    U, mono = label
    return (tuple(t if t < m else None for t in U),
            tuple(mono[p] for p in range(m) if kind == "P" or p not in U),
            tuple(mono[t] for t in U if t >= m) if kind == "P" else (),
            tuple(sorted(mono[p] for p in range(m, len(mono)) if p not in U)))


@pytest.mark.parametrize("kind", ["P", "Q"])
@pytest.mark.parametrize("s", range(3))
def test_hom_keys_match_the_orbit_solver(kind, s):
    # the keys of Hom(P(s, n, N), T) against the orbits of the orbit solver
    # on the built T, one key per orbit and each the key of all its labels,
    # and the key map of every slot variable x_pos, pos < n, against the
    # restriction of T's label map to the orbit sums; N <= 4 and n, d <= 3
    for N in range(5):
        for d in range(min(3, N) + 1):
            T = _build_family(kind, s, d, N)
            for n in range(min(3, N) + 1):
                orbits = _mapping_solutions(PQFamily("P", s, n), T)
                keys, xs = _hom_keys(s, n, (kind, s, d), N)
                assert len(keys) == len(orbits)
                orbit_of = {}
                for k, orbit in enumerate(orbits):
                    (key,) = {_label_key(T.labels[t], kind, n) for t in orbit}
                    orbit_of[key] = k
                place = [orbit_of[key] for key in keys]
                assert sorted(place) == list(range(len(orbits)))
                sub = Subspace(orbits, T.dim)
                for pos, cm in enumerate(xs):
                    on_orbits = [None] * len(orbits)
                    for k, u in enumerate(cm):
                        if u is not None:
                            on_orbits[place[k]] = place[u]
                    assert _map_matrix(on_orbits) == sub.restrict(T.xmaps[pos]), (N, d, n, pos)


@pytest.mark.parametrize("kind", ["P", "Q"])
@pytest.mark.parametrize("s", range(3))
def test_hom_blocks_match_the_listed_keys(kind, s):
    # on the grid of test_hom_keys_match_the_orbit_solver: the listed keys,
    # grouped by their number of low positions, are whole grids [0..s]^low
    # that _orbit_census counts, and the strand complex over all the listed keys
    # with their key maps has the cohomology that ext_truncated sums over
    # the blocks, for P and Q sources
    for N in range(5):
        for d in range(min(3, N) + 1):
            T = _build_family(kind, s, d, N)
            for n in range(min(3, N) + 1):
                keys, xs = _hom_keys(s, n, (kind, s, d), N)
                listed: dict = {}  # number of low positions (off a Q target's tuple) -> keys
                for pattern, *_ in keys:
                    low = sum(1 for p in range(n) if kind == "P" or p not in pattern)
                    listed[low] = listed.get(low, 0) + 1
                grids = {low: divmod(count, (s + 1) ** low) for low, count in listed.items()}
                assert all(rest == 0 for _, rest in grids.values()), (N, d, n)
                assert _orbit_census(kind, d, n, N, s + 1) == {
                    low: copies for low, (copies, _) in grids.items()}, (N, d, n)
                for src_kind in "PQ":
                    M = _build_family(src_kind, s, n, N)
                    assert ext_truncated(M, T, 3) == _strand_cohomology(
                        s, n if src_kind == "Q" else 0, 5, len(keys),
                        lambda pos, exp: _map_matrix(_power_map(xs[pos], exp))), (src_kind, N, d, n)


def _closed_form_ext(src_kind, s, n, T, max_i):
    """Ext^i(P or Q(s, n, N), T) for i <= max_i from blocks read off the
    orbit solver on the built T: orbits that agree on slot pattern, slot
    digits and multiset form one block, with z = n - (its low positions)
    dead strands.  Each strand on a low position is the resolution of k
    mapped into k[x]/(x^(s+1)), exact but in degree 0, which it leaves one
    dimension; a dead strand is k in every degree.  So a Q source with
    s >= 1 gives C(i + z - 1, z - 1) per block for z > 0 and delta_i0 for
    z = 0, and a P source, s = 0 or n = 0 gives the orbit count in degree 0
    and nothing above it."""
    kind = T.family[0]
    orbits = _mapping_solutions(PQFamily("P", s, n), T)
    if src_kind == "P" or s == 0 or n == 0:
        return [len(orbits)] + [0] * max_i
    blocks = {}  # (pattern, slot digits, multiset) -> dead strands
    for orbit in orbits:
        pattern, low_ds, slot_ds, multiset = _label_key(T.labels[next(iter(orbit))], kind, n)
        blocks[pattern, slot_ds, multiset] = n - len(low_ds)
    return [sum(comb(i + z - 1, z - 1) if z else int(i == 0) for z in blocks.values())
            for i in range(max_i + 1)]


@pytest.mark.parametrize("kind", ["P", "Q"])
@pytest.mark.parametrize("s", range(4))
def test_ext_truncated_matches_the_closed_form(kind, s):
    # an oracle that shares no code with _orbit_census: dimensions of the
    # strand complexes of the blocks, counted on the orbit solver's orbits;
    # N <= 5, n, d <= 3 and dim T <= 3000
    for N in range(6):
        for d in range(min(3, N) + 1):
            if pq_dimension(kind, s, d, N) > 3000:
                continue
            T = _build_family(kind, s, d, N)
            for n in range(min(3, N) + 1):
                for src_kind in "PQ":
                    M = _build_family(src_kind, s, n, N)
                    assert ext_truncated(M, T, 4) == _closed_form_ext(src_kind, s, n, T, 4), (
                        src_kind, N, d, n)


def _stand_in(family, N, s):
    return SimpleNamespace(family=family, cfg=RingConfig(N, s))


@pytest.mark.parametrize("source,target,max_i,match", [
    (_stand_in(("Q", 1, 1), 2, 1), _stand_in(("P", 1, 1), 2, 1), -1, "nonnegative"),
    (_stand_in(("Q", 1, 1), 2, 1), _stand_in(("P", 1, 1), 3, 1), 1, "config mismatch"),
    (_stand_in(None, 2, 1), _stand_in(("P", 1, 1), 2, 1), 1, "P or Q source; .* has no family"),
    (_stand_in(("Q", 1, 1), 2, 1), _stand_in(None, 2, 1), 1, "P or Q target; .* has no family"),
    (_stand_in(("Q", 1, 3), 2, 1), _stand_in(("P", 1, 1), 2, 1), 1,
     "profile tuple size 3 exceeds truncation 2"),
    (_stand_in(("Q", 1, 1), 2, 1), _stand_in(("P", 1, 3), 2, 1), 1,
     r"target tuple size n=3 exceeds truncation N=2"),
    (_stand_in(("Q", 2, 1), 2, 1), _stand_in(("P", 1, 1), 2, 1), 1,
     r"source family .* is not over the ring's s=1"),
    (_stand_in(("Q", 1, 1), 2, 1), _stand_in(("P", 2, 1), 2, 1), 1,
     r"target family .* is not over the ring's s=1"),
    (_stand_in(("R", 1, 1), 2, 1), _stand_in(("P", 1, 1), 2, 1), 1, "unknown family kind"),
    # with several faults, the first in this order is reported
    (_stand_in(None, 2, 1), _stand_in(None, 3, 1), -1, "nonnegative"),
    (_stand_in(None, 2, 1), _stand_in(("P", 1, 1), 3, 1), 1, "config mismatch"),
    (_stand_in(None, 2, 1), _stand_in(("P", 1, 3), 2, 1), 1, "source; .* has no family"),
    (_stand_in(("Q", 2, 3), 2, 1), _stand_in(("P", 2, 3), 2, 1), 1, "profile tuple size"),
    (_stand_in(("Q", 2, 1), 2, 1), _stand_in(("P", 1, 3), 2, 1), 1, "source family"),
], ids=["negative-degree", "config-mismatch", "source-without-family",
        "target-without-family", "source-tuple-over-N", "target-tuple-over-N",
        "source-s-off-the-ring", "target-s-off-the-ring", "unknown-kind",
        "order-degree-first", "order-config-before-family", "order-family-before-sizes",
        "order-source-size-before-s", "order-source-before-target"])
def test_ext_truncated_refuses_impossible_stand_ins(source, target, max_i, match):
    with pytest.raises(ValueError, match=match):
        ext_truncated(source, target, max_i)


def test_ext_truncated_reads_only_families_and_the_ring(monkeypatch):
    # on the ext-vanish grid, stand-ins that carry only a family and a ring
    # give the built modules' answers, and no module is built for them
    built = [(build_Q(s, n, N), build_P(s, d, N))
             for s, n, N in EXT_VANISH_SOURCES for d in range(min(2, N) + 1)]

    def refuse(*args, **kwargs):
        raise AssertionError("a module was built")

    monkeypatch.setattr(EquivModule, "__init__", refuse)
    for M, T in built:
        stand_ins = [SimpleNamespace(family=X.family, cfg=X.cfg) for X in (M, T)]
        assert ext_truncated(*stand_ins, 2) == ext_truncated(M, T, 2), (M, T)


def test_ext_truncated_fills_no_module(monkeypatch):
    # the ext-vanish grid and the truncated path of cmd_ext build their
    # modules and read only the families, so no module is ever filled
    from equivar import verify
    from equivar.cli import main

    filled = []
    init = EquivModule.__init__

    def counting(self, *args, **kwargs):
        filled.append(self.name)
        init(self, *args, **kwargs)

    monkeypatch.setattr(EquivModule, "__init__", counting)
    _build_family.cache_clear()  # else modules an earlier test filled answer from the cache
    build_Q(1, 1, 2).labels
    assert filled == ["Q(s=1,n=1)"]  # the wrap is live
    filled.clear()
    checks = verify.run_suite("ext-vanish", 3)
    assert len(checks) == 66 and all(c["ok"] for c in checks)
    assert main(["--format", "json", "ext", "--mode", "truncated", "--s", "3",
                 "--src", "Q,3,1", "--dst", "P,3,3", "--N", "4"]) == 0
    assert filled == []


def test_grid_cache_keeps_every_argument(monkeypatch):
    # every truncated Ext of a P or Q source into a P or Q target, s <= 3,
    # N <= 5, n, d <= 3, in sweeps of max_i = 0, ..., 4: each sweep reads a
    # cache that holds every grid already, at a shorter length, and strand
    # count 0 (P source) and n (Q source) meet on one grid; the answers
    # match the same sweeps with each grid's _strand_cohomology called
    # directly (once per distinct s, strand count, length and grid size)
    requests = [(src_kind, kind, s, N, n, d)
                for s in range(4) for N in range(6)
                for n in range(min(3, N) + 1) for d in range(min(3, N) + 1)
                for kind in "PQ" for src_kind in "PQ"]

    def sweeps():
        return [ext_truncated(_build_family(src_kind, s, n, N), _build_family(kind, s, d, N), max_i)
                for max_i in range(5) for src_kind, kind, s, N, n, d in requests]

    _grid_cohomology.cache_clear()
    cached = sweeps()
    assert _grid_cohomology.cache_info().hits > len(cached) // 2
    grids = {}

    def uncached(s, strands, length, low):
        key = (s, strands, length, low)
        if key not in grids:
            grids[key] = _strand_cohomology(
                s, strands, length, (s + 1) ** low,
                lambda pos, exp: _map_matrix(_power_map(
                    _slot_variable(s, low, [tuple(reversed(range(low)))], range((s + 1) ** low), pos)
                    if pos < low else [None] * (s + 1) ** low, exp)))
        return grids[key]

    monkeypatch.setattr("equivar.homcalc._grid_cohomology", uncached)
    assert cached == sweeps()


def test_one_build_per_family():
    for s, n, N in [(0, 0, 1), (1, 1, 2), (2, 2, 3)]:
        assert build_P(s, n, N) is PQFamily("P", s, n).build(N)
        assert build_Q(s, n, N) is PQFamily("Q", s, n).build(N)


def _zero_module(s, N):
    return EquivModule(RingConfig(N, s), [], xmaps=[[]] * N, swaps=[[]] * max(N - 1, 0))


def _kernel_of_cover(M):
    F, cover, _ = _free_cover(M)
    return _kernel_module(F, cover.matrix)[0]


@pytest.mark.parametrize("N", range(6))
def test_group_walk_reaches_every_permutation_once(N):
    walk = _group_walk(N)
    assert walk[0] == (None, None)
    perms = [tuple(range(N))]
    for parent, j in walk[1:]:
        assert parent < len(perms) and 0 <= j < N - 1
        perms.append(tuple(j + 1 if v == j else j if v == j + 1 else v
                           for v in perms[parent]))
    assert len(perms) == len(set(perms)) == factorial(N)
    assert set(perms) == set(itertools.permutations(range(N)))


@pytest.mark.parametrize("build", [
    lambda: build_Q(1, 1, 3), lambda: build_Q(1, 2, 3), lambda: build_P(2, 1, 3),
    lambda: build_Q(1, 1, 4), lambda: _kernel_of_cover(build_Q(1, 1, 3)),
], ids=["Q113", "Q123", "P213", "Q114", "kernel"])
def test_walk_section_matches_average_over_all_words(build):
    M = matrix_module(build())
    N = M.cfg.N
    rep, sec = _quotient_by_radical(M)
    # the reference: average perm_matrix(g) @ lift @ rep.matrix(g^-1) over
    # the N! permutations, each through its own coxeter word
    radical = SpanBasis([c for x in M.xmul for c in columns(x)], M.dim)
    free = [t for t in range(M.dim) if t not in set(radical.free)]
    lift = SparseRationalMatrix(M.dim, len(free))
    for t, f in enumerate(free):
        lift.set(f, t, 1)
    perms = sorted(itertools.permutations(range(N)))
    acc = SparseRationalMatrix(M.dim, len(free))
    for g in perms:
        inv = [0] * N
        for k, img in enumerate(g):
            inv[img] = k
        acc = acc + (M.perm_matrix(g) @ lift @ rep.matrix(tuple(inv)))
    assert sec == scale(acc, Fraction(1, len(perms)))


def test_skewed_basis_takes_the_averaged_section():
    # P(1, 0, 2) with basis vector 0 replaced by 1 + x0: the lift of the
    # free coordinate no longer commutes with the swap, so the section is
    # the group average, and it must still split and be equivariant
    P = build_P(1, 0, 2)
    C = identity(P.dim)
    C.set(1, 0, 1)
    C_inv = identity(P.dim)
    C_inv.set(1, 0, -1)
    plain = matrix_module(P)
    M = MatrixModule(P.cfg, P.labels, [C_inv @ x @ C for x in plain.xmul],
                     [C_inv @ c @ C for c in plain.coxeter], name="skewed P(1,0,2)")
    rep, sec = _quotient_by_radical(M)
    assert sorted({v for row in sec.rows for v in row.values()}) == [
        Fraction(-1, 2), Fraction(1, 2), 1]
    radical = SpanBasis([c for x in M.xmul for c in columns(x)], M.dim)
    free = [t for t in range(M.dim) if t not in set(radical.free)]
    assert [residue(radical, col) for col in columns(sec)] == [{t: 1} for t in free]
    for j in range(M.cfg.N - 1):
        assert M.coxeter[j] @ sec == sec @ rep.coxeter[j]
    T = build_P(1, 1, 2)
    assert _ext_by_free_covers(M, T, 2) == ext_truncated(P, T, 2) == [4, 0, 0]


EXT_VANISH_SOURCES = [(s, n, N) for s in range(3) for N in range(1, 4)
                      for n in range(min(2, N) + 1)]


@pytest.mark.parametrize("s,n,N", EXT_VANISH_SOURCES)
def test_free_covers_of_ext_vanish_sources_have_integer_entries(s, n, N):
    # the section of these covers is the lift itself, so no 1/N! enters the
    # cover matrix or any generator image of the resolution
    M = build_Q(s, n, N)
    cover = _free_cover(M)[1].matrix
    assert all(type(v) is int for row in cover.rows for v in row.values())
    _, gens, _ = _resolution(M, 4)
    assert all(type(v) is int for level in gens for w in level for v in w.values())


def test_ext_truncated_generic_branch_matches_label_maps():
    # the generator images of P(s, n, N) into T, whose span ext_truncated
    # takes its Hom complex over: the orbit solver against the generic
    # elimination on a matrix-only copy of T
    for src, tgt in [(build_Q(1, 1, 3), build_P(1, 1, 3)), (build_Q(1, 2, 3), build_P(1, 2, 3)),
                     (build_Q(2, 1, 2), build_Q(2, 1, 2))]:
        _, s, n = src.family
        plain = matrix_module(tgt)
        profile = PQFamily("P", s, n)
        assert (SpanBasis(_mapping_solutions(profile, tgt), tgt.dim)
                == SpanBasis(_mapping_solutions_generic(profile, plain), tgt.dim))


# ext_truncated(X(s, n, N), Y(s, d, N), 2) for n, d in 0..2, row-major in
# (n, d); recorded before the orbit solver and the group walk landed
EXT_TRUNCATED_TABLE = {
    ("QQ", 0, 3): [[1, 0, 0], [1, 0, 0], [1, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0],
                   [1, 0, 0], [3, 0, 0], [6, 0, 0]],
    ("QQ", 1, 2): [[3, 0, 0], [2, 0, 0], [1, 0, 0], [2, 0, 0], [3, 2, 2], [2, 2, 2],
                   [1, 0, 0], [2, 2, 2], [2, 4, 6]],
    ("QQ", 1, 3): [[4, 0, 0], [3, 0, 0], [2, 0, 0], [3, 0, 0], [5, 3, 3], [5, 4, 4],
                   [2, 0, 0], [5, 4, 4], [8, 12, 16]],
    ("QQ", 2, 2): [[6, 0, 0], [3, 0, 0], [1, 0, 0], [3, 0, 0], [4, 3, 3], [2, 2, 2],
                   [1, 0, 0], [2, 2, 2], [2, 4, 6]],
    ("QQ", 2, 3): [[10, 0, 0], [6, 0, 0], [3, 0, 0], [6, 0, 0], [9, 6, 6], [7, 6, 6],
                   [3, 0, 0], [7, 6, 6], [10, 16, 22]],
    ("PP", 0, 3): [[1, 0, 0], [1, 0, 0], [1, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0],
                   [1, 0, 0], [3, 0, 0], [6, 0, 0]],
    ("PP", 1, 2): [[3, 0, 0], [4, 0, 0], [4, 0, 0], [4, 0, 0], [8, 0, 0], [8, 0, 0],
                   [4, 0, 0], [8, 0, 0], [8, 0, 0]],
    ("PP", 1, 3): [[4, 0, 0], [6, 0, 0], [8, 0, 0], [6, 0, 0], [14, 0, 0], [24, 0, 0],
                   [8, 0, 0], [24, 0, 0], [48, 0, 0]],
    ("PP", 2, 2): [[6, 0, 0], [9, 0, 0], [9, 0, 0], [9, 0, 0], [18, 0, 0], [18, 0, 0],
                   [9, 0, 0], [18, 0, 0], [18, 0, 0]],
    ("PP", 2, 3): [[10, 0, 0], [18, 0, 0], [27, 0, 0], [18, 0, 0], [45, 0, 0], [81, 0, 0],
                   [27, 0, 0], [81, 0, 0], [162, 0, 0]],
    ("PQ", 0, 3): [[1, 0, 0], [1, 0, 0], [1, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0],
                   [1, 0, 0], [3, 0, 0], [6, 0, 0]],
    ("PQ", 1, 2): [[3, 0, 0], [2, 0, 0], [1, 0, 0], [4, 0, 0], [4, 0, 0], [2, 0, 0],
                   [4, 0, 0], [4, 0, 0], [2, 0, 0]],
    ("PQ", 1, 3): [[4, 0, 0], [3, 0, 0], [2, 0, 0], [6, 0, 0], [7, 0, 0], [6, 0, 0],
                   [8, 0, 0], [12, 0, 0], [12, 0, 0]],
    ("PQ", 2, 2): [[6, 0, 0], [3, 0, 0], [1, 0, 0], [9, 0, 0], [6, 0, 0], [2, 0, 0],
                   [9, 0, 0], [6, 0, 0], [2, 0, 0]],
    ("PQ", 2, 3): [[10, 0, 0], [6, 0, 0], [3, 0, 0], [18, 0, 0], [15, 0, 0], [9, 0, 0],
                   [27, 0, 0], [27, 0, 0], [18, 0, 0]],
}


@pytest.mark.parametrize("key", sorted(EXT_TRUNCATED_TABLE))
def test_ext_truncated_table_is_pinned(key):
    kinds, s, N = key
    build = {"P": build_P, "Q": build_Q}
    got = [ext_truncated(build[kinds[0]](s, n, N), build[kinds[1]](s, d, N), 2)
           for n in range(3) for d in range(3)]
    assert got == EXT_TRUNCATED_TABLE[key]


@pytest.mark.parametrize("src,tgt,max_i,expected", [
    ((build_Q, 2, 2, 5), (build_P, 2, 3, 5), 2, [297, 0, 0]),
    ((build_Q, 1, 3, 5), (build_Q, 1, 2, 5), 4, [31, 48, 66, 84, 102]),
], ids=["Q225-P235", "Q135-Q125"])
def test_ext_truncated_above_the_ext_vanish_grid(src, tgt, max_i, expected):
    # N = 5 and three slot strands, past the ext-vanish grid; the second
    # point has nonzero positive degrees
    (build_src, *src_params), (build_tgt, *tgt_params) = src, tgt
    assert ext_truncated(build_src(*src_params), build_tgt(*tgt_params), max_i) == expected


# the ext-truncated requests of perfbench/workloads.py, Q(s, n, N) into
# P(s, d, N): the ext-vanish grid, plus N = 4 for s in 0..1
PERFBENCH_EXT_TRUNCATED = (
    [(s, n, d, N) for s in range(3) for N in range(1, 4)
     for n in range(min(2, N) + 1) for d in range(min(2, N) + 1)]
    + [(s, n, d, 4) for s in range(2) for n in range(2) for d in range(3)])


def test_strands_match_free_covers_on_the_perfbench_grid():
    assert len(PERFBENCH_EXT_TRUNCATED) == 78
    for s, n, d, N in PERFBENCH_EXT_TRUNCATED:
        M, T = build_Q(s, n, N), build_P(s, d, N)
        assert ext_truncated(M, T, 2) == _ext_by_free_covers(M, T, 2), (s, n, d, N)


@pytest.mark.parametrize("s", range(3))
def test_strands_match_free_covers_on_small_pq_pairs(s):
    build = {"P": build_P, "Q": build_Q}
    for src, tgt in itertools.product("PQ", repeat=2):
        for N in range(4):
            for n, d in itertools.product(range(min(2, N) + 1), repeat=2):
                M, T = build[src](s, n, N), build[tgt](s, d, N)
                assert (ext_truncated(M, T, 3)
                        == _ext_by_free_covers(M, T, 3)), (src, tgt, N, n, d)


@pytest.mark.parametrize("s", range(3))
def test_strand_cochain_differentials_compose_to_zero(s):
    # on label-map, matrix-only and zero targets, up to three slot strands,
    # with T's blocks and with their restriction to Hom(P(s, n, N), T)
    for N in range(1, 4):
        for n in range(1, N + 1):
            targets = [*_targets(s, min(n, 2), N), matrix_module(build_Q(s, 1, N)),
                       _zero_module(s, N)]
            for T in targets:
                # the orbit solver takes label maps only
                solve = (_mapping_solutions if isinstance(T, EquivModule)
                         else _mapping_solutions_generic)
                sub = Subspace(solve(PQFamily("P", s, n), T), T.dim)
                xmul = matrix_module(T).xmul
                for dim, block in ((T.dim, lambda pos, exp, xmul=xmul: power(xmul[pos], exp)),
                                   (sub.dim, lambda pos, exp, xmul=xmul, sub=sub:
                                    restrict(sub, power(xmul[pos], exp)))):
                    _, diffs = _strand_complex(s, n, 5, dim, block)
                    for d, e in zip(diffs, diffs[1:]):
                        assert (e @ d).is_zero(), (N, n, T.name, dim)


def test_ext_rejects_a_negative_degree_bound():
    with pytest.raises(ValueError, match="nonnegative"):
        ext_truncated(build_Q(1, 1, 2), build_P(1, 1, 2), -1)
    for max_degree in (-1, -2):
        with pytest.raises(ValueError, match="nonnegative"):
            ext_stable(1, 1, 1, 3, max_degree)


@pytest.mark.parametrize("build", [
    lambda: build_Q(1, 1, 3), lambda: build_P(2, 1, 3), lambda: build_Q(1, 2, 3),
    lambda: build_Q(2, 1, 2), lambda: _kernel_of_cover(build_Q(1, 1, 3)),
], ids=["Q113", "P213", "Q123", "Q212", "kernel"])
def test_resolution_generator_images_match_full_differentials(build):
    """gens[i][f] is the generator column of inclusion @ cover.matrix, the
    full matrix of F_i -> F_{i-1}, rebuilt here level by level."""
    M = build()
    levels = 3
    _, gens, free_mods = _resolution(M, levels)
    current, inclusion = M, None
    for level in range(levels):
        F, cover, rep = _free_cover(current)
        assert F.labels == free_mods[level].labels
        full = cover.matrix if inclusion is None else inclusion @ cover.matrix
        generators = [F.label_index[((0,) * M.cfg.N, f)] for f in range(rep.dim)]
        assert gens[level] == [column(full, col) for col in generators]
        current, inclusion = _kernel_with_inclusion(F, cover.matrix)


# --- the periodic Tor ---------------------------------------------------------------

@pytest.mark.parametrize("s,N", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_tor_characters_match_singleton_family(s, N):
    assert tor_periodic(s, N) == character_of(build_Q(s, 1, N))


def test_tor_periodic_is_pinned():
    # sha256 of the character tables of degrees 1..4, s 1..3 and N 1..5,
    # recorded while the image characters were read off a SpanBasis
    rows = [[s, N, [_class_function_table(tor_periodic(s, N))] * 4]
            for s in (1, 2, 3) for N in (1, 2, 3, 4, 5)]
    assert _digest(rows) == "3d16ed9a53fdd5abc54102e2b3b06f58bde08cc530758bedf13b3e0b4f692d64"


def _subspace_character(C, span):
    """Elimination oracle for the character of a C-stable subspace: the trace
    of a representative permutation of each cycle type on span, read off the
    coordinates of its image vectors in span's basis."""
    N = C.cfg.N
    vals = {}
    for mu in partitions(N):
        cols = columns(C.perm_matrix(representative_permutation(mu)))
        vals[mu] = sum(coords(span, apply_columns(cols, vec))[t]
                       for t, vec in enumerate(span.basis))
    return ClassFunction(N, vals)


# the 19 pairs (s, N) with s <= 4 and dim C = N^2 (s+1)^(N-1) <= 2025
TOR_ORACLE_CASES = [(s, N) for s in range(1, 5) for N in range(1, 8)
                    if N * N * (s + 1) ** (N - 1) <= 2025]


@pytest.mark.parametrize("s,N", TOR_ORACLE_CASES)
def test_tor_counts_match_elimination_oracle(s, N):
    C, odd, even = _tor_label_maps(s, N)
    oracle = [_subspace_character(C, SpanBasis((c for c in columns(_map_matrix(cm)) if c), C.dim))
              for cm in (odd, even)]
    assert [character_of(C, _image_labels(C, cm)) for cm in (odd, even)] == oracle
    expected = trace_character(matrix_module(C)) - oracle[0] - oracle[1]
    assert tor_periodic(s, N) == expected


def test_image_labels_certificate():
    C, odd, _ = _tor_label_maps(1, 3)
    assert sorted(_image_labels(C, odd)) == sorted(u for u in odd if u is not None)
    twice = list(odd)  # the same swap-stable image, with one label hit twice
    twice[odd.index(None)] = next(u for u in odd if u is not None)
    with pytest.raises(AssemblyError, match="not injective"):
        _image_labels(C, twice)
    with pytest.raises(AssemblyError, match="not injective"):
        _image_labels(C, [0] + [None] * (C.dim - 1))  # one label, not swap-stable


def test_character_of_counts_match_traces():
    """character_of counts fixed labels; the oracle takes the trace of
    perm_matrix on a matrix-only copy."""
    for s in (1, 2):
        for N in (1, 2, 3):
            mods = [_tor_label_maps(s, N)[0]]
            for n in range(N + 1):
                P, Q = build_P(s, n, N), build_Q(s, n, N)
                mods += [P, Q, direct_sum([P, Q]), *filtration_layers(s, n, N)[1]]
            for mod in mods:
                assert character_of(mod) == trace_character(matrix_module(mod))


def test_tor_dimension_formula():
    assert tor_periodic(2, 2).dim() == 6  # N * (s+1)^(N-1)


def test_tor_zero_matches_direct_tensor_count():
    # degree-zero homology is the tensor square: for each ordered pair of
    # positions, a free monomial part away from both
    for s, N in [(1, 2), (1, 3), (2, 2)]:
        C, odd, _ = _tor_label_maps(s, N)
        tor0 = C.dim - matrix_rank(_map_matrix(odd))
        oracle = sum((s + 1) ** (N - len({i, j}))
                     for i in range(N) for j in range(N))
        assert tor0 == oracle


def test_tor_requires_positive_bound():
    with pytest.raises(ValueError):
        _tor_label_maps(0, 2)


def oracle_tor_dims_via_minimal_covers(s, N, r_max):
    """Independent Tor oracle: resolve the singleton Q family by minimal free
    covers (a different algorithm from the explicit periodic complex), tensor
    the resolution down to its generator fibers, and take homology ranks."""
    Q = build_Q(s, 1, N)
    qdim, xmul = Q.dim, matrix_module(Q).xmul
    current, inclusion = Q, None
    reps, diffs, free_mods = [], [], []
    for _ in range(r_max + 2):
        F, cover, rep = _free_cover(current)
        diffs.append(cover.matrix if inclusion is None else inclusion @ cover.matrix)
        reps.append(rep)
        free_mods.append(F)
        current, inclusion = _kernel_with_inclusion(F, cover.matrix)

    def mono_action(mono):
        m = identity(qdim)
        for i, e in enumerate(mono):
            for _ in range(e):
                m = xmul[i] @ m
        return m

    from equivar.linalg import SparseRationalMatrix

    tensored = []
    for level in range(1, r_max + 2):
        src, dst = reps[level], reps[level - 1]
        dst_labels = free_mods[level - 1].labels
        mat = SparseRationalMatrix(dst.dim * qdim, src.dim * qdim)
        d = diffs[level]
        for f in range(src.dim):
            col_idx = free_mods[level].label_index[((0,) * N, f)]
            for idx, coeff in column(d, col_idx).items():
                mono, fp = dst_labels[idx]
                for (r, c, num, den) in mono_action(mono).to_triplets():
                    vec_axpy(mat.rows[fp * qdim + r], coeff * Fraction(num, den), {f * qdim + c: 1})
        tensored.append(mat)
    ranks = [matrix_rank(m) for m in tensored]  # ranks[i] = rank of C_{i+1} -> C_i
    out = []
    for r in range(1, r_max + 1):
        out.append(reps[r].dim * qdim - ranks[r - 1] - ranks[r])
    return out


@pytest.mark.parametrize("s,N", [(1, 2), (1, 3), (2, 2)])
def test_tor_dims_against_minimal_cover_oracle(s, N):
    dim = int(tor_periodic(s, N).dim())
    assert oracle_tor_dims_via_minimal_covers(s, N, 3) == [dim] * 3


def test_fast_path_matches_elimination_larger_case():
    tgt = build_Q(1, 2, 4)
    fast = _mapping_solutions(PQFamily("Q", 1, 2), tgt)
    slow = _mapping_solutions_generic(PQFamily("Q", 1, 2), tgt)
    assert SpanBasis(fast, tgt.dim) == SpanBasis(slow, tgt.dim)


def test_ext_truncated_refuses_a_source_without_a_family():
    with pytest.raises(ValueError, match="no family"):
        ext_truncated(direct_sum([build_Q(1, 1, 2)]), build_P(1, 1, 2), 1)


def test_ext_truncated_refuses_a_target_without_a_family():
    with pytest.raises(ValueError, match="P or Q target; .* has no family"):
        ext_truncated(build_Q(1, 1, 2), direct_sum([build_P(1, 1, 2)]), 1)


def test_stable_hom_refuses_a_target_that_is_not_a_family():
    with pytest.raises(ValueError, match="PQFamily"):
        stable_hom(PQFamily("Q", 1, 1), lambda N: build_Q(1, 1, N), 3)


def test_mapping_solutions_on_zero_module():
    cx = coresolution_Q(0, 1, 2, 3)
    zero_mod = cx.modules[2]
    assert zero_mod.dim == 0
    assert _mapping_solutions(PQFamily("Q", 0, 1), zero_mod) == []


def test_stable_solutions_into_p_land_in_embedded_q():
    # rigidity behind the P-target comparison: every stable generator image
    # inside the P family lies in the embedded copy of the Q family
    from equivar.equivariant import q_into_p_embedding

    for s in (1, 2):
        for a in (1, 2):
            for b in range(a + 1):
                N = max(a, b) + 2
                emb = q_into_p_embedding(s, b, N)
                span = SpanBasis(columns(emb.matrix), emb.target.dim)
                r = stable_hom(PQFamily("Q", s, a), PQFamily("P", s, b), N)
                assert r.dim_stable > 0
                for v in r.basis:
                    assert contains(span, v)
