"""Request grids of the three benchmark workloads and their expected answers.

A request is a plain tuple; ``worker.py`` turns it into one call of
equivar's public API and ``run.py`` checks the answer against
``expected(request)`` after the timed interval.  The grid of a workload is
fixed; the seed only sets the order in which its requests run.

- ``stable-hom``: the qqmaps, qpmaps, torsion-hom and cascat-compare grids of
  ``equivar verify`` at max-N 5.  P/Q module assembly and homcalc's
  label-chasing constraints and stabilization dominate; it is the only
  workload that uses the ``_build_family`` cache (200 lookups, 62 distinct
  families, 138 hits).
- ``ext-truncated``: the ext-vanish grid plus N=4 for s in {0, 1}.  The
  sparse linear algebra of minimal free resolutions dominates; 50 of the 78
  requests resolve a Q source that an earlier request already resolved.
- ``ext-stable``: stable Ext between Q families through P coresolutions.
  Coresolution assembly (direct sums, composite and rank checks) and
  stabilization on direct sums dominate; of its 96 coresolution builds only
  22 are distinct.
"""

from __future__ import annotations

import random
from math import comb, factorial

WORKLOADS = ("stable-hom", "ext-truncated", "ext-stable")


def _injection_count(a: int, b: int) -> int:
    """Injections [b] -> [a]: the stable Hom dimension Q(s,a) -> Q(s,b)."""
    return factorial(a) // factorial(a - b) if b <= a else 0


def _stable_hom_grid() -> list:
    out = []
    for s in (1, 2):
        for a in range(4):
            for b in range(4):
                N = max(a, b) + 2
                out.append(("stable_hom", "Q", s, a, "Q", s, b, N))
                out.append(("stable_hom", "Q", s, a, "P", s, b, N))
    for s in (1, 2):
        for m in range(3):
            for n in range(3):
                out.append(("stable_hom", "Q", s - 1, m, "P", s, n, max(m, n) + 2))
    for s in (1, 2):
        for m in range(3):
            for n in range(3):
                out.append(("stable_hom", "P", s, n, "P", s, m, n + m + 1))
    return out


def _ext_truncated_grid() -> list:
    out = []
    for s in (0, 1, 2):
        for N in (1, 2, 3):
            for n in range(min(2, N) + 1):
                for d in range(min(2, N) + 1):
                    out.append(("ext_truncated", s, n, d, N, 2))
    for s in (0, 1):
        for n in (0, 1):
            for d in range(3):
                out.append(("ext_truncated", s, n, d, 4, 2))
    return out


def _ext_stable_grid() -> list:
    out = []
    for s in (1, 2):
        for a in range(4):
            for b in (1, 2):
                for N in (3, 4):
                    if N < max(a, b) + 1 or (s == 2 and N == 4 and b == 2):
                        continue
                    for max_i in (2, 3):
                        out.append(("ext_stable", s, a, b, N, max_i))
    return out


_GRIDS = {
    "stable-hom": _stable_hom_grid,
    "ext-truncated": _ext_truncated_grid,
    "ext-stable": _ext_stable_grid,
}


def requests(workload: str, rng: random.Random) -> list:
    """The workload's full grid, shuffled by ``rng``."""
    grid = _GRIDS[workload]()
    rng.shuffle(grid)
    return grid


def expected(req: tuple):
    """The exact answer a request must return.

    Closed forms where the paper gives one; for the degree-0 truncated Ext
    an independent label-chasing computation of the same Hom space.
    """
    op = req[0]
    if op == "stable_hom":
        _, src_kind, src_s, src_n, tgt_kind, tgt_s, tgt_n, _N = req
        if src_kind == "P":
            from equivar.cas_cat import hom_dimension

            return hom_dimension(tgt_n, src_n, src_s)
        if src_s != tgt_s:
            return 0  # a lower-bound Q source maps stably to zero
        return _injection_count(src_n, tgt_n)
    if op == "ext_truncated":
        from equivar.equivariant import build_P
        from equivar.homcalc import PQFamily, hom_mapping_property

        _, s, n, d, N, max_i = req
        ext0 = len(hom_mapping_property(PQFamily("Q", s, n), build_P(s, d, N)))
        return [ext0] + [0] * max_i
    if op == "ext_stable":
        _, s, a, b, _N, max_i = req
        return [_injection_count(a, b) * comb(i + b - 1, b - 1) for i in range(max_i + 1)]
    raise ValueError(f"unknown request {req!r}")
