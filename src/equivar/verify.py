"""The verification suites behind ``equivar verify`` and the acceptance tests.

Each suite function returns a list of check records::

    {"suite": ..., "name": ..., "parameters": {...},
     "expected": ..., "got": ..., "ok": bool, "runtime_ms": int}

``max_N`` clamps every truncation level a suite would request (grid points
needing a larger level are skipped).
"""

from __future__ import annotations

import itertools
import random
import time
from math import comb, factorial

from .cas_cat import compare_with_P_homs, hom_dimension, injective_I
from .combinat import (
    frobenius_char,
    induce_character,
    injection_count,
    irreducible_class_function,
    partitions,
    schur,
)
from .equivariant import build_P, build_Q, character_of, filtration_P
from .fi_layer import verify_phi_P, verify_phi_T
from .groth import (
    KGenClass,
    KModClass,
    mu_matrix,
    p_class_in_q_basis,
    q_class_in_p_basis,
    rank_expand,
    truncation_dim_check,
)
from .homcalc import PQFamily, coresolution_Q, ext_stable, ext_truncated, stable_hom, tor_periodic
from .linalg import matrix_rank

SUITE_NAMES = [
    "qqmaps",
    "qpmaps",
    "filtration",
    "phi",
    "tor",
    "ext-self",
    "ext-vanish",
    "torsion-hom",
    "kgroup",
    "rank-expand",
    "tensor",
    "cascat",
]


def _record(suite, name, parameters, expected, got, t0):
    return {
        "suite": suite,
        "name": name,
        "parameters": parameters,
        "expected": expected,
        "got": got,
        "ok": expected == got,
        "runtime_ms": int((time.perf_counter() - t0) * 1000),
    }


def suite_qqmaps(max_N: int = 5) -> list:
    """Stable Hom dimensions between Q families are injection counts."""
    out = []
    for s in (1, 2):
        for a in range(4):
            for b in range(4):
                N = max(a, b) + 2
                if N > max_N:
                    continue
                t0 = time.perf_counter()
                r = stable_hom(PQFamily("Q", s, a), PQFamily("Q", s, b), N)
                expected = injection_count(b, a)
                out.append(_record(
                    "qqmaps", f"hom_Q{s},{a}_to_Q{s},{b}",
                    {"s": s, "source_n": a, "target_n": b, "N": N,
                     "dim_at_N": r.dim_at_N, "dim_at_N_plus_1": r.dim_at_N_plus_1},
                    expected, r.dim_stable, t0))
    return out


def suite_qpmaps(max_N: int = 5) -> list:
    """Maps from a Q family into a P family agree with maps into the Q family."""
    out = []
    for s in (1, 2):
        for a in range(4):
            for b in range(4):
                N = max(a, b) + 2
                if N > max_N:
                    continue
                t0 = time.perf_counter()
                rp = stable_hom(PQFamily("Q", s, a), PQFamily("P", s, b), N)
                rq = stable_hom(PQFamily("Q", s, a), PQFamily("Q", s, b), N)
                out.append(_record(
                    "qpmaps", f"hom_Q{s},{a}_into_P_vs_Q_{b}",
                    {"s": s, "source_n": a, "target_n": b, "N": N},
                    rq.dim_stable, rp.dim_stable, t0))
    return out


def suite_filtration(max_N: int = 4) -> list:
    """The refined power filtration has (s+1)^n layers, each matching the Q
    family at the level of characters."""
    out = []
    for s in (0, 1, 2):
        for n in (0, 1, 2):
            for N in range(max(n, 1), min(4, max_N) + 1):
                t0 = time.perf_counter()
                chars = filtration_P(s, n, N)
                chi_q = character_of(build_Q(s, n, N))
                got = {"layers": len(chars), "all_match": all(c == chi_q for c in chars)}
                expected = {"layers": (s + 1) ** n, "all_match": True}
                out.append(_record(
                    "filtration", f"filtration_P_s{s}_n{n}_N{N}",
                    {"s": s, "n": n, "N": N}, expected, got, t0))
    return out


def suite_phi(max_N: int = 4) -> list:
    """The weight-bounded functor sends principal modules to the Q family at
    the same bound and torsion modules to the Q family one bound lower."""
    out = []
    for s in (1, 2):
        for n in (0, 1, 2):
            for N in range(max(n, 1), min(4, max_N) + 1):
                t0 = time.perf_counter()
                rp = verify_phi_P(s, n, N)
                out.append(_record(
                    "phi", f"phi_principal_s{s}_n{n}_N{N}",
                    {"s": s, "n": n, "N": N},
                    {"ok": True}, {"ok": rp.ok, **({"mismatch": rp.mismatch} if not rp.ok else {})}, t0))
                t0 = time.perf_counter()
                rt = verify_phi_T(s, n, N)
                out.append(_record(
                    "phi", f"phi_torsion_s{s}_n{n}_N{N}",
                    {"s": s, "n": n, "N": N},
                    {"ok": True}, {"ok": rt.ok, **({"mismatch": rt.mismatch} if not rt.ok else {})}, t0))
    return out


def suite_tor(max_N: int = 3) -> list:
    """Positive-degree homology of the periodic complex keeps the character
    of the singleton Q family, in every degree up to four."""
    out = []
    for s in (1, 2):
        for N in (2, 3):
            if N > max_N:
                continue
            t0 = time.perf_counter()
            chi = tor_periodic(s, N)
            chi_q = character_of(PQFamily("Q", s, 1).build(N))
            got = {f"r{r}": chi == chi_q for r in range(1, 5)}
            expected = {f"r{r}": True for r in range(1, 5)}
            out.append(_record(
                "tor", f"tor_s{s}_N{N}",
                {"s": s, "N": N, "dims": [int(chi.dim())] * 4},
                expected, got, t0))
    return out


def suite_ext_self(max_N: int = 3) -> list:
    """Stable self-extensions of the singleton Q family are one-dimensional
    in every degree.  ``ext_stable`` builds no coresolution, so each check
    also builds the exact coresolution that its answer is the cohomology of,
    whose composite and exactness checks raise AssemblyError on a fault."""
    out = []
    N = min(3, max_N)
    if N < 2:
        return out
    for s in (1, 2):
        t0 = time.perf_counter()
        coresolution_Q(s, 1, N, 5)
        got = ext_stable(s, 1, 1, N, 3)
        out.append(_record(
            "ext-self", f"ext_stable_Q{s}1_N{N}",
            {"s": s, "N": N, "degrees": [0, 1, 2, 3]},
            [1, 1, 1, 1], got, t0))
    return out


def suite_ext_vanish(max_N: int = 3) -> list:
    """Truncated equivariant Ext from a Q family into a P family vanishes in
    positive degrees (free targets over a self-injective ring)."""
    out = []
    for s in (0, 1, 2):
        for N in range(1, min(3, max_N) + 1):
            for n in range(0, min(2, N) + 1):
                for d in range(0, min(2, N) + 1):
                    t0 = time.perf_counter()
                    ext = ext_truncated(build_Q(s, n, N), build_P(s, d, N), 2)
                    out.append(_record(
                        "ext-vanish", f"ext_trunc_Q{s}{n}_P{s}{d}_N{N}",
                        {"s": s, "n": n, "d": d, "N": N, "ext0": ext[0]},
                        [0, 0], ext[1:], t0))
    return out


def suite_torsion_hom(max_N: int = 4) -> list:
    """Stable maps from a lower-bound Q family into a P family vanish."""
    out = []
    for s in (1, 2):
        for m in range(3):
            for n in range(3):
                N = max(m, n) + 2
                if N > max_N:
                    continue
                t0 = time.perf_counter()
                r = stable_hom(PQFamily("Q", s - 1, m), PQFamily("P", s, n), N)
                out.append(_record(
                    "torsion-hom", f"hom_Q{s - 1},{m}_to_P{s},{n}",
                    {"s": s, "m": m, "n": n, "N": N, "dim_at_N": r.dim_at_N},
                    0, r.dim_stable, t0))
    return out


def suite_kgroup(max_N: int = 5) -> list:
    """Invertibility of the multiplication-by-ring operator, exact round
    trips between the two family bases, and the worked example."""
    out = []
    for s in range(4):
        for n in range(1, 6):
            t0 = time.perf_counter()
            mat, ps, _ = mu_matrix(n, s)
            out.append(_record(
                "kgroup", f"mu_invertible_n{n}_s{s}",
                {"n": n, "s": s, "classes": len(ps)},
                len(ps), matrix_rank(mat), t0))
    for s in (0, 1, 2):
        for size in range(1, 5):
            for lam in partitions(size):
                t0 = time.perf_counter()
                fwd = p_class_in_q_basis(lam, s)
                back = KGenClass()
                for (_, r, mu), c in fwd.coeffs.items():
                    back = back + q_class_in_p_basis(mu, r).scale(c)
                out.append(_record(
                    "kgroup", f"roundtrip_p_q_{'-'.join(map(str, lam))}_s{s}",
                    {"lam": list(lam), "s": s},
                    _kgen_str(KGenClass({("P", s, lam): 1})), _kgen_str(back), t0))
    t0 = time.perf_counter()
    example = p_class_in_q_basis((2,), 1)
    out.append(_record(
        "kgroup", "p_class_example",
        {"lam": [2], "s": 1},
        _kgen_str(KGenClass({("Q", 1, (2,)): 3, ("Q", 1, (1, 1)): 1})),
        _kgen_str(example), t0))
    return out


def _kgen_str(kg: KGenClass) -> str:
    return "; ".join(f"{kind}(r={r},{','.join(map(str, lam)) or '0'})={c}"
                     for (kind, r, lam), c in kg.coeffs.items())


def suite_rank_expand(max_N: int = 5) -> list:
    """The expansion over the ring-class basis is well-defined and injective
    on the span of the P classes, and normalizes the bound-zero classes."""
    out = []
    for s in (0, 1, 2):
        t0 = time.perf_counter()
        keys = [("P", r, lam) for r in range(s + 1)
                for size in range(4) for lam in partitions(size)]
        images = [rank_expand(KGenClass({k: 1})) for k in keys]
        distinct = {
            (r, lam)
            for img in images
            for r, f in img.parts.items()
            for lam in f.coeffs
        }
        got = {"terms": len(distinct),
               "one_term_each": all(sum(len(f.coeffs) for f in img.parts.values()) == 1
                                    for img in images)}
        expected = {"terms": len(keys), "one_term_each": True}
        out.append(_record(
            "rank-expand", f"injective_on_P_span_s{s}",
            {"s": s, "span": len(keys)}, expected, got, t0))
        t0 = time.perf_counter()
        normalized = all(
            rank_expand(KGenClass({("P", r, ()): 1})) == KModClass({r: schur(())})
            for r in range(s + 1)
        )
        out.append(_record(
            "rank-expand", f"ring_class_normalization_s{s}",
            {"s": s}, True, normalized, t0))
    return out


def suite_tensor(max_N: int = 8) -> list:
    """Dimension identity for tensor products of tuple modules at truncation,
    plus the product identity under the character-to-symmetric-function map."""
    out = []
    for n in range(4):
        for m in range(4):
            for N in range(n + m, min(8, max_N) + 1):
                if N < 1:
                    continue
                t0 = time.perf_counter()
                out.append(_record(
                    "tensor", f"dim_identity_n{n}_m{m}_N{N}",
                    {"n": n, "m": m, "N": N},
                    True, truncation_dim_check(n, m, N), t0))
    for da in (1, 2, 3):
        for db in (1, 2, 3):
            for lam in partitions(da):
                for mu in partitions(db):
                    t0 = time.perf_counter()
                    chi_lam, chi_mu = irreducible_class_function(lam), irreducible_class_function(mu)
                    product = frobenius_char(induce_character([(da, chi_lam), (db, chi_mu)]))
                    # schur(lam) * schur(mu) runs this same induction, so the
                    # degree [S_(da+db) : S_da x S_db] f^lam f^mu, read off
                    # the irreducibles, is the side that does not go through it
                    degree = sum(c * irreducible_class_function(nu).dim()
                                 for nu, c in product.coeffs.items())
                    ok = (product == schur(lam) * schur(mu)
                          and degree == comb(da + db, da) * chi_lam.dim() * chi_mu.dim())
                    out.append(_record(
                        "tensor", f"frobenius_product_{lam}_{mu}",
                        {"lam": list(lam), "mu": list(mu)}, True, ok, t0))
    return out


def suite_cascat(max_N: int = 5) -> list:
    """Associativity on seeded random triples, the dimension comparison with
    stable module maps, and the socle of the dual representables."""
    from fractions import Fraction

    from .cas_cat import CasMorphism, compose

    out = []
    rng = random.Random(0xA5)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(200):
        s = rng.randint(1, 2)
        a, b, c, d = sorted(rng.randint(0, 3) for _ in range(4))

        def rand_morph(m, n):
            injs = list(itertools.permutations(range(n), m))
            terms = {}
            if injs:
                for _ in range(rng.randint(1, 2)):
                    f = rng.choice(injs)
                    mono = tuple(rng.randint(0, s) for _ in range(n))
                    terms[(f, mono)] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            return CasMorphism.make(m, n, s, terms)

        f, g, h = rand_morph(a, b), rand_morph(b, c), rand_morph(c, d)
        if compose(h, compose(g, f)) != compose(compose(h, g), f):
            failures += 1
    out.append(_record("cascat", "associativity_200_seeded",
                       {"seed": 0xA5, "triples": 200}, 0, failures, t0))

    for s in (1, 2):
        for m in range(3):
            for n in range(3):
                N = n + m + 1
                if N > max_N:
                    continue
                t0 = time.perf_counter()
                ok = compare_with_P_homs(m, n, s, N)
                out.append(_record(
                    "cascat", f"hom_dim_match_m{m}_n{n}_s{s}",
                    {"m": m, "n": n, "s": s, "N": N,
                     "formula": hom_dimension(m, n, s)},
                    True, ok, t0))

    for s in (1, 2):
        for n in range(3):
            t0 = time.perf_counter()
            info = injective_I(s, n, n)
            above = injective_I(s, n, n + 1)
            got = {"socle": info.socle_dim, "dim": info.dim, "above": above.dim}
            expected = {"socle": factorial(n),
                        "dim": factorial(n) * (s + 1) ** n,
                        "above": 0}
            out.append(_record(
                "cascat", f"injective_socle_s{s}_n{n}",
                {"s": s, "n": n}, expected, got, t0))
    return out


_SUITES = {
    "qqmaps": suite_qqmaps,
    "qpmaps": suite_qpmaps,
    "filtration": suite_filtration,
    "phi": suite_phi,
    "tor": suite_tor,
    "ext-self": suite_ext_self,
    "ext-vanish": suite_ext_vanish,
    "torsion-hom": suite_torsion_hom,
    "kgroup": suite_kgroup,
    "rank-expand": suite_rank_expand,
    "tensor": suite_tensor,
    "cascat": suite_cascat,
}


def run_suite(name: str, max_N: int = 5) -> list:
    return _SUITES[name](max_N=max_N)


def run_suites(names, max_N: int = 5) -> list:
    names = list(names)
    for name in names:
        if name not in _SUITES:
            raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    return [check for name in names for check in run_suite(name, max_N=max_N)]
