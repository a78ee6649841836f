"""Command line front end.

Subcommands: dim, hom, ext, tor, kclass, cas, verify.  Output is UTF-8 plain
text (``--format table``) or JSON (``--format json``); identical invocations
produce byte-identical JSON payloads (the wall-clock field lives outside the
``result`` object).  Exit codes: 0 success, 1 failed verification, 2 bad
parameters, 3 an internal exact check failed.

``hom --src A --dst B`` computes maps *from* A *to* B: maps between the Q
families exist exactly when the destination tuple size is at most the
source's, one basis map per arrangement.

The dimension guard refuses jobs whose modules would exceed ``--max-dim``
basis elements (default 50000, overridable via EQUIVAR_MAX_DIM).  ``hom``
and ``cas --op compare`` charge their target at level N, an upper bound, as
only its unslotted orbits are keyed and no label is listed; the orbits of
levels N and N+1 are counted, and level N+1 is charged nothing.  Both Ext
modes build slot strands, whose last term holds one copy per composition
of max_i + 1 into n parts (a single copy when s or n is 0, or for a P
source).
Stable Ext charges the last term of the target's coresolution, copies
times dim P(s, n, N); it builds no P (its cochains are copies of the stable
space inside P, whose unslotted orbits are keyed at level N and whose
orbits at N and N+1 are counted), so this is an upper bound.  Truncated
Ext charges its source, and copies times the dimension of the target: an
upper bound on the cochains of its last strand term, copies times the
dimension of the solution space in the target.
``tor`` applies it to its complex, N copies of Q(s, 1, N), one per position;
building Q touches only Q's own monomials, so nothing larger is charged.
``cas --op injective`` at m = n applies it to the morphism space [n] -> [n].
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from math import comb

DEFAULT_MAX_DIM = 50_000
DEFAULT_CAP_N = 5


class ParameterError(Exception):
    """Invalid or out-of-bounds request; exits with status 2."""


def _check_bounds(args, requests, copies: int = 1) -> None:
    """requests: list of (kind, s, n, N) the command intends to build or
    list, each as a direct sum of ``copies`` modules."""
    from .equivariant import pq_dimension

    cap = args.cap_N
    max_dim = args.max_dim
    for kind, s, n, N in requests:
        if s < 0 or n < 0 or N < 0:
            raise ParameterError("parameters must be nonnegative")
        if N > cap:
            raise ParameterError(f"N={N} exceeds the cap {cap} (raise --cap-N)")
        try:
            d = copies * pq_dimension(kind, s, n, N)
        except ValueError as exc:
            raise ParameterError(str(exc)) from None
        if d > max_dim:
            what = f"a {kind} module" if copies == 1 else f"a sum of {copies} {kind} modules"
            raise ParameterError(f"{what} of dimension {d} exceeds --max-dim {max_dim}")


def _parse_family(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ParameterError(f"expected KIND,s,n (e.g. Q,1,1), got {text!r}")
    kind = parts[0].strip().upper()
    if kind not in ("P", "Q"):
        raise ParameterError(f"kind must be P or Q, got {parts[0]!r}")
    try:
        s, n = int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ParameterError(str(exc)) from None
    return kind, s, n


def _parse_partition(text: str):
    text = text.strip()
    if not text or text == "0":
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"bad partition {text!r}") from None
    if any(p < 1 for p in parts) or any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ParameterError(f"parts must be weakly decreasing and positive: {text!r}")
    return parts


def _class_function_table(chi) -> dict:
    return {",".join(map(str, mu)) or "()": str(chi.values[mu]) for mu in chi.values}


# --- subcommand implementations ------------------------------------------------

def cmd_dim(args) -> dict:
    _check_bounds(args, [(args.kind, args.s, args.n, args.N)])
    from .equivariant import build_P, build_Q, pq_dimension

    builder = build_P if args.kind == "P" else build_Q
    mod = builder(args.s, args.n, args.N)
    closed = pq_dimension(args.kind, args.s, args.n, args.N)
    result = {
        "dim": mod.dim,
        "closed_form": closed,
        "match": mod.dim == closed,
    }
    if args.dump:
        result["module"] = mod.to_json_dict()
    return result


def cmd_hom(args) -> dict:
    src = _parse_family(args.src)
    dst = _parse_family(args.dst)
    if src[0] != "Q":
        raise ParameterError("the source family must be Q-type (determined by one generator)")
    # an upper bound: only level N's unslotted orbits are keyed, levels N and N+1 counted
    _check_bounds(args, [(dst[0], dst[1], dst[2], args.N)])
    from .homcalc import PQFamily, stable_hom

    r = stable_hom(PQFamily(*src), PQFamily(*dst), args.N)
    return {
        "dim_at_N": r.dim_at_N,
        "dim_at_N_plus_1": r.dim_at_N_plus_1,
        "dim_stable": r.dim_stable,
    }


def _strand_copies(kind: str, s: int, n: int, max_i: int) -> int:
    """The copies of P(s, n, N) in the last strand term that Ext to degree
    max_i builds for the family (kind, s, n): one per composition of
    max_i + 1 into n parts, and a single one for P or when s or n is 0."""
    return comb(max_i + n, n - 1) if kind == "Q" and s > 0 and n > 0 else 1


def cmd_ext(args) -> dict:
    if args.max_i < 0:
        raise ParameterError("--max-i must be nonnegative")
    from .equivariant import build_P, build_Q
    from .homcalc import ext_stable, ext_truncated

    if args.mode == "stable":
        n = args.n_target
        _check_bounds(args, [("P", args.s, n, args.N)], _strand_copies("Q", args.s, n, args.max_i))
        dims = ext_stable(args.s, args.n_source, args.n_target, args.N, args.max_i)
        return {"mode": "stable", "dims": dims, "degrees": list(range(args.max_i + 1))}
    src = _parse_family(args.src) if args.src else ("Q", args.s, 1)
    dst = _parse_family(args.dst) if args.dst else ("P", args.s, 1)
    _check_bounds(args, [(src[0], src[1], src[2], args.N)])
    # the cochains of the last strand term: one copy of the target per copy of P
    _check_bounds(args, [(dst[0], dst[1], dst[2], args.N)], _strand_copies(*src, args.max_i))
    build = {"P": build_P, "Q": build_Q}
    M = build[src[0]](src[1], src[2], args.N)
    T = build[dst[0]](dst[1], dst[2], args.N)
    dims = ext_truncated(M, T, args.max_i)
    return {"mode": "truncated", "dims": dims, "degrees": list(range(args.max_i + 1))}


def cmd_tor(args) -> dict:
    if args.s < 1:
        raise ParameterError("tor needs s >= 1")
    if args.r < 1:
        raise ParameterError("tor degrees start at 1")
    _check_bounds(args, [("Q", args.s, 1, args.N)], copies=args.N)
    from .equivariant import character_of
    from .homcalc import PQFamily, tor_periodic

    chi = tor_periodic(args.s, args.N)  # the same in every positive degree
    chi_q = character_of(PQFamily("Q", args.s, 1).build(args.N))
    return {
        "character": _class_function_table(chi),
        "dim": str(chi.dim()),
        "matches_Q": chi == chi_q,
    }


def cmd_kclass(args) -> dict:
    from .groth import (
        KGenClass,
        char_of_S,
        p_class_in_q_basis,
        q_class_in_p_basis,
        rank_expand,
    )

    lam = _parse_partition(args.lam) if args.lam is not None else None
    if args.op == "char":
        if args.n is None:
            raise ParameterError("char needs --n")
        chi = char_of_S(args.n, args.s)
        return {"values": _class_function_table(chi)}
    if lam is None:
        raise ParameterError(f"{args.op} needs --lambda")
    if args.op == "p2q":
        cls = p_class_in_q_basis(lam, args.s)
    elif args.op == "q2p":
        cls = q_class_in_p_basis(lam, args.s)
    elif args.op == "expand":
        tag = args.kind
        return {"expansion": rank_expand(KGenClass({(tag, args.s, lam): 1})).to_json_dict()}
    else:
        raise ParameterError(f"unknown kclass op {args.op!r}")
    return {
        "classes": {
            f"{kind}({','.join(map(str, mu)) or '()'})": [c.numerator, c.denominator]
            for (kind, r, mu), c in cls.coeffs.items()
        }
    }


def cmd_cas(args) -> dict:
    if min(args.m, args.n, args.s) < 0:
        raise ParameterError("--m, --n and --s must be nonnegative")
    from .cas_cat import compare_with_P_homs, hom_dimension, injective_I

    if args.op == "hom":
        return {"dim": hom_dimension(args.m, args.n, args.s)}
    if args.op == "injective":
        # at m = n the socle is solved on the whole morphism space [n] -> [n]
        if args.m == args.n:
            d = hom_dimension(args.n, args.n, args.s)
            if d > args.max_dim:
                raise ParameterError(f"a morphism space of dimension {d} exceeds "
                                     f"--max-dim {args.max_dim}")
        info = injective_I(args.s, args.n, args.m)
        return {"dim": info.dim, "socle_dim": info.socle_dim}
    if args.op == "compare":
        N = args.N if args.N is not None else args.m + args.n + 1
        # an upper bound: stable_hom keys the unslotted level-N orbits of its
        # target P(s, m, N) and counts levels N and N+1
        _check_bounds(args, [("P", args.s, args.m, N)])
        return {"N": N, "match": compare_with_P_homs(args.m, args.n, args.s, N)}
    raise ParameterError(f"unknown cas op {args.op!r}")


def cmd_verify(args) -> tuple:
    from .verify import SUITE_NAMES, run_suites

    if args.max_N < 1:
        raise ParameterError("--max-N must be at least 1")
    names = SUITE_NAMES if args.suite == "all" else [args.suite]
    try:
        checks = run_suites(names, max_N=args.max_N, jobs=args.jobs)
    except KeyError as exc:
        raise ParameterError(exc.args[0]) from None
    if not checks:
        raise ParameterError(f"no check of suite(s) {', '.join(names)} runs at --max-N {args.max_N}")
    failures = [c for c in checks if not c["ok"]]
    for c in checks:
        line = dict(c)
        if args.format == "json":
            print(json.dumps(line, sort_keys=True, default=str))
        else:
            status = "pass" if c["ok"] else "FAIL"
            print(f"[{status}] {c['suite']}: {c['name']} ({c['runtime_ms']} ms)")
    summary = {
        "suites": names,
        "checks": len(checks),
        "failures": len(failures),
        "max_N": args.max_N,
    }
    return summary, (0 if not failures else 1)


# --- wiring ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equivar",
        description="Exact computations with equivariant modules over truncated polynomial rings.",
    )
    parser.add_argument("--format", choices=["json", "table"], default="table")
    parser.add_argument("--max-dim", type=int,
                        default=int(os.environ.get("EQUIVAR_MAX_DIM", DEFAULT_MAX_DIM)),
                        help="refuse jobs whose modules exceed this many basis elements")
    parser.add_argument("--cap-N", type=int, default=DEFAULT_CAP_N, dest="cap_N",
                        help="largest truncation level a command may request")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", help="dimension of a P or Q family module")
    p.add_argument("--kind", choices=["P", "Q"], required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--dump", action="store_true", help="include the full module JSON")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("hom", help="stable maps between family modules")
    p.add_argument("--src", required=True, metavar="KIND,s,n")
    p.add_argument("--dst", required=True, metavar="KIND,s,n")
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("ext", help="stable or truncated Ext dimensions")
    p.add_argument("--mode", choices=["stable", "truncated"], default="stable")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n-source", type=int, default=1, dest="n_source")
    p.add_argument("--n-target", type=int, default=1, dest="n_target")
    p.add_argument("--src", default=None, metavar="KIND,s,n")
    p.add_argument("--dst", default=None, metavar="KIND,s,n")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--max-i", type=int, default=3, dest="max_i")
    p.set_defaults(func=cmd_ext)

    p = sub.add_parser("tor", help="character of a periodic-complex homology degree")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=cmd_tor)

    p = sub.add_parser("kclass", help="class-group computations")
    p.add_argument("--op", choices=["p2q", "q2p", "expand", "char"], required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--lambda", dest="lam", default=None,
                   help="comma-separated partition, e.g. 2,1")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--kind", choices=["P", "Q"], default="P")
    p.set_defaults(func=cmd_kclass)

    p = sub.add_parser("cas", help="combinatorial category computations")
    p.add_argument("--op", choices=["hom", "injective", "compare"], required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--N", type=int, default=None)
    p.set_defaults(func=cmd_cas)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--max-N", type=int, default=5, dest="max_N")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_verify)

    return parser


def _emit(args, payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        op = payload.get("operation", "")
        print(f"== {op} {json.dumps(payload.get('parameters', {}), sort_keys=True, default=str)}")
        for key, value in payload.get("result", {}).items():
            print(f"{key}: {json.dumps(value, sort_keys=True, default=str)}")
        print(f"runtime_ms: {payload.get('runtime_ms')}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    params = {
        k: v for k, v in vars(args).items()
        if k not in ("func", "command", "format", "max_dim", "cap_N") and v is not None
    }
    t0 = time.perf_counter()
    try:
        outcome = args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, KeyError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(outcome, tuple):
        result, code = outcome
    else:
        result, code = outcome, 0
    payload = {
        "operation": args.command,
        "parameters": params,
        "result": result,
        "runtime_ms": int((time.perf_counter() - t0) * 1000),
    }
    _emit(args, payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
