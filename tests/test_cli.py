import hashlib
import json
import pathlib
import re
import subprocess
import sys
import time

import jsonschema
import pytest

import equivar.cli
from equivar.cli import _emit as cli_emit
from equivar.cli import main
from equivar.combinat import partitions

DOCS = pathlib.Path(__file__).resolve().parents[1] / "docs"
PAYLOAD_SCHEMA = json.loads((DOCS / "cli_output.schema.json").read_text())
CHECK_SCHEMA = json.loads((DOCS / "verify_check.schema.json").read_text())


def run_json(capsys, argv):
    code = main(["--format", "json", *argv])
    out = capsys.readouterr().out.strip().splitlines()
    return code, [json.loads(line) for line in out]


def test_dim_command(capsys):
    code, lines = run_json(capsys, ["dim", "--kind", "Q", "--s", "1", "--n", "1", "--N", "3"])
    assert code == 0
    payload = lines[-1]
    jsonschema.validate(payload, PAYLOAD_SCHEMA)
    assert payload["result"] == {"dim": 12, "closed_form": 12, "match": True}


def test_dim_trivial_case(capsys):
    code, lines = run_json(capsys, ["dim", "--kind", "P", "--s", "0", "--n", "0", "--N", "4"])
    assert code == 0
    assert lines[-1]["result"]["dim"] == 1


def test_dim_p_example(capsys):
    code, lines = run_json(capsys, ["dim", "--kind", "P", "--s", "1", "--n", "1", "--N", "3"])
    assert code == 0
    assert lines[-1]["result"]["dim"] == 24


def test_dim_dump_includes_module(capsys):
    code, lines = run_json(capsys, ["dim", "--kind", "Q", "--s", "1", "--n", "1", "--N", "2", "--dump"])
    assert code == 0
    mod = lines[-1]["result"]["module"]
    assert mod["dim"] == 4 and mod["cfg"] == {"N": 2, "s": 1}


def test_hom_command_and_direction(capsys):
    code, lines = run_json(capsys, ["hom", "--src", "Q,1,2", "--dst", "Q,1,1", "--N", "4"])
    assert code == 0
    assert lines[-1]["result"]["dim_stable"] == 2
    code, lines = run_json(capsys, ["hom", "--src", "Q,1,1", "--dst", "Q,1,2", "--N", "4"])
    assert code == 0
    assert lines[-1]["result"]["dim_stable"] == 0


def test_hom_reports_all_three_dimensions(capsys):
    code, lines = run_json(capsys, ["hom", "--src", "Q,1,1", "--dst", "Q,1,1", "--N", "3"])
    assert code == 0
    result = lines[-1]["result"]
    assert set(result) == {"dim_at_N", "dim_at_N_plus_1", "dim_stable"}
    assert result["dim_stable"] <= min(result["dim_at_N"], result["dim_at_N_plus_1"])


def test_ext_stable_command(capsys):
    code, lines = run_json(capsys, ["ext", "--mode", "stable", "--s", "1", "--N", "3", "--max-i", "3"])
    assert code == 0
    assert lines[-1]["result"]["dims"] == [1, 1, 1, 1]


def test_ext_truncated_command(capsys):
    code, lines = run_json(capsys, [
        "ext", "--mode", "truncated", "--s", "1",
        "--src", "Q,1,1", "--dst", "P,1,2", "--N", "3", "--max-i", "2",
    ])
    assert code == 0
    dims = lines[-1]["result"]["dims"]
    assert dims[1] == 0 and dims[2] == 0


def test_tor_command(capsys):
    code, lines = run_json(capsys, ["tor", "--s", "1", "--r", "2", "--N", "3"])
    assert code == 0
    result = lines[-1]["result"]
    assert result["matches_Q"] is True
    assert result["dim"] == "12"


@pytest.mark.parametrize("argv,message", [
    (["--max-dim", "6000", "tor", "--s", "3", "--r", "1", "--N", "5"],
     "a sum of 5 Q modules of dimension 6400 exceeds --max-dim 6000"),
    (["--cap-N", "12", "tor", "--s", "1", "--r", "1", "--N", "12"],
     "a sum of 12 Q modules of dimension 294912 exceeds --max-dim 50000"),
])
def test_tor_guard_counts_the_complex(capsys, monkeypatch, argv, message):
    # the guard charges the complex, N copies of Q(s, 1, N)
    import equivar.equivariant
    import equivar.homcalc

    def refuse(*args):
        raise AssertionError("the complex was built")

    monkeypatch.setattr(equivar.homcalc, "tor_periodic", refuse)
    # the one P/Q builder, under both names that call it
    monkeypatch.setattr(equivar.homcalc, "_build_family", refuse)
    monkeypatch.setattr(equivar.equivariant, "_build_family", refuse)
    assert main(["--format", "json", *argv]) == 2
    out = capsys.readouterr()
    assert out.out == "" and message in out.err


@pytest.mark.parametrize("s,N,dim", [(60, 3, "11163"), (1000000, 1, "1"), (12000, 2, "24002")])
def test_tor_with_a_large_bound_runs(capsys, s, N, dim):
    # building Q(s, 1, N) no longer enumerates the (s+1)^N ring monomials,
    # and x^s is composed by repeated squaring, so these fit the guard and run
    start = time.perf_counter()
    code, lines = run_json(capsys, ["tor", "--s", str(s), "--r", "1", "--N", str(N)])
    elapsed = time.perf_counter() - start
    result = lines[-1]["result"]
    assert code == 0 and result["dim"] == dim and result["matches_Q"] is True
    assert elapsed < 3.0


def test_tor_degree_is_not_allocated(capsys):
    # every positive degree has the same character, so a huge degree costs
    # what degree 1 does; one list entry per degree took 8 GB at r = 10**9
    results = []
    for r in ("1", str(10 ** 12)):
        code, lines = run_json(capsys, ["tor", "--s", "1", "--r", r, "--N", "2"])
        assert code == 0
        results.append(lines[-1]["result"])
    assert results[0] == results[1]


def test_tor_runtime_is_bounded(capsys):
    # dim C = 6400; reading the image characters off a SpanBasis took 11.8 s
    start = time.perf_counter()
    code, lines = run_json(capsys, ["tor", "--s", "3", "--r", "4", "--N", "5"])
    elapsed = time.perf_counter() - start
    assert code == 0 and lines[-1]["result"]["matches_Q"] is True
    assert elapsed < 3.0


def test_tor_builds_q_once(capsys):
    # the complex and the matches_Q comparison share one cached Q(s, 1, N):
    # the builder runs once, and that once for Q(2, 1, 3)
    from equivar.equivariant import _build_family

    _build_family.cache_clear()
    code, lines = run_json(capsys, ["tor", "--s", "2", "--r", "1", "--N", "3"])
    assert code == 0 and lines[-1]["result"]["matches_Q"] is True
    assert _build_family.cache_info().misses == 1
    _build_family("Q", 2, 1, 3)
    assert _build_family.cache_info().misses == 1


def test_kclass_commands(capsys):
    code, lines = run_json(capsys, ["kclass", "--op", "p2q", "--s", "1", "--lambda", "2"])
    assert code == 0
    assert lines[-1]["result"]["classes"] == {"Q(2)": [3, 1], "Q(1,1)": [1, 1]}
    code, lines = run_json(capsys, ["kclass", "--op", "q2p", "--s", "1", "--lambda", "1"])
    assert lines[-1]["result"]["classes"] == {"P(1)": [1, 2]}
    code, lines = run_json(capsys, ["kclass", "--op", "expand", "--s", "1", "--lambda", "1", "--kind", "Q"])
    assert lines[-1]["result"]["expansion"] == {"1": {"1": [1, 2]}}
    code, lines = run_json(capsys, ["kclass", "--op", "char", "--s", "1", "--n", "2"])
    assert lines[-1]["result"]["values"] == {"1,1": "4", "2": "2"}


# the sha256 of the JSON results of p2q, q2p and expand (P and Q), in that
# order, for s <= 2 and every partition of 0..7, taken before q2p divided
KCLASS_GRID_SHA256 = "a6a8080639624400a5fc2522bafee1183b59e8e37759a65e339542b4b7ba45af"


def test_kclass_grid_is_pinned():
    parser = equivar.cli.build_parser()
    results = []
    for op in (["p2q"], ["q2p"], ["expand", "--kind", "P"], ["expand", "--kind", "Q"]):
        for s in range(3):
            for n in range(8):
                for lam in partitions(n):
                    args = parser.parse_args(["--format", "json", "kclass", "--op", *op,
                                              "--s", str(s),
                                              "--lambda", ",".join(map(str, lam)) or "0"])
                    results.append(args.func(args))
    blob = json.dumps(results, sort_keys=True, default=str)  # as _emit writes a result
    assert hashlib.sha256(blob.encode()).hexdigest() == KCLASS_GRID_SHA256


def test_cas_commands(capsys):
    code, lines = run_json(capsys, ["cas", "--op", "hom", "--m", "1", "--n", "1", "--s", "1"])
    assert lines[-1]["result"]["dim"] == 2
    code, lines = run_json(capsys, ["cas", "--op", "injective", "--m", "1", "--n", "1", "--s", "1"])
    assert lines[-1]["result"] == {"dim": 2, "socle_dim": 1}
    code, lines = run_json(capsys, ["cas", "--op", "compare", "--m", "1", "--n", "1", "--s", "1"])
    assert code == 0 and lines[-1]["result"]["match"] is True


def test_bad_parameters_exit_two(capsys):
    assert main(["dim", "--kind", "Q", "--s", "1", "--n", "9", "--N", "3"]) == 2
    capsys.readouterr()
    assert main(["hom", "--src", "X,1,1", "--dst", "Q,1,1", "--N", "3"]) == 2
    capsys.readouterr()
    assert main(["kclass", "--op", "p2q", "--s", "1", "--lambda", "1,2"]) == 2
    capsys.readouterr()
    assert main(["verify", "--suite", "nosuch"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["ext", "--mode", "stable", "--s", "1", "--N", "3", "--max-i", "-1"],
    ["ext", "--mode", "truncated", "--s", "1", "--N", "3", "--max-i", "-1"],
    ["cas", "--op", "hom", "--m", "1", "--n", "1", "--s", "-1"],
    ["cas", "--op", "hom", "--m", "-1", "--n", "1", "--s", "1"],
    ["cas", "--op", "hom", "--m", "1", "--n", "-1", "--s", "1"],
    ["cas", "--op", "injective", "--m", "1", "--n", "1", "--s", "-1"],
    ["kclass", "--op", "expand", "--kind", "P", "--s", "-1", "--lambda", "2"],
])
def test_negative_parameters_exit_two(capsys, argv):
    # each of these used to exit 0, with an empty, zero or meaningless result
    assert main(["--format", "json", *argv]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "nonnegative" in out.err


@pytest.mark.parametrize("argv,digest", [
    (["dim", "--kind", "P", "--s", "1", "--n", "2", "--N", "3", "--dump"],
     "c9673f1125f033a1febdb45f5175576c3ac744b9100d8f196dc79a4e6eff1caa"),
    (["dim", "--kind", "Q", "--s", "2", "--n", "1", "--N", "3", "--dump"],
     "0cc88e6ce5be6803191c49efc19b3dac6c01e9a6fa8c1ad82d9f72ce6fed2856"),
])
def test_dim_dump_is_pinned(capsys, argv, digest):
    # the dumped matrices are derived from label maps; the digests were taken
    # when the modules stored Fraction matrices, so the JSON is unchanged
    code, lines = run_json(capsys, argv)
    assert code == 0
    result = json.dumps(lines[-1]["result"], sort_keys=True).encode()
    assert hashlib.sha256(result).hexdigest() == digest


def test_direct_sum_dump_is_pinned():
    from equivar.equivariant import build_P, build_Q, direct_sum

    mod = direct_sum([build_Q(1, 1, 3), build_P(1, 1, 3), build_Q(1, 0, 3)])
    data = json.dumps(mod.to_json_dict(), sort_keys=True).encode()
    assert (hashlib.sha256(data).hexdigest()
            == "7d3f4317829e64ba3e9f5754755390c1099ba3d9a5d79ecb1d134798d70d2573")


def test_cap_and_dimension_guard(capsys):
    assert main(["dim", "--kind", "P", "--s", "2", "--n", "1", "--N", "7"]) == 2
    capsys.readouterr()
    assert main(["--max-dim", "10", "dim", "--kind", "Q", "--s", "1", "--n", "1", "--N", "3"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("src, dst, N, dims", [
    ("Q,2,0", "P,2,3", 5, [162, 270, 0]),
    ("Q,3,3", "P,3,3", 4, [96, 492, 6]),
])
def test_hom_guard_charges_only_level_n(capsys, src, dst, N, dims):
    # level N+1 is counted, not listed, so neither N + 1 = 6 above the cap
    # 5 nor P(3, 3, 5) of dimension 61440 above --max-dim 50000 refuses
    code, lines = run_json(capsys, ["hom", "--src", src, "--dst", dst, "--N", str(N)])
    assert code == 0
    result = lines[-1]["result"]
    assert [result["dim_at_N"], result["dim_at_N_plus_1"], result["dim_stable"]] == dims
    # one level up, the listed level is over the bounds
    assert main(["hom", "--src", src, "--dst", dst, "--N", str(N + 1)]) == 2
    capsys.readouterr()


STABLE_EXT = ["ext", "--mode", "stable", "--s", "1", "--n-source", "3", "--n-target", "1",
              "--max-i", "2"]


@pytest.mark.parametrize("argv, up, result", [
    ([*STABLE_EXT, "--N", "5"], [*STABLE_EXT, "--N", "6"], {"dims": [3, 3, 3]}),
    (["cas", "--op", "compare", "--m", "2", "--n", "2", "--s", "1"],
     ["cas", "--op", "compare", "--m", "2", "--n", "2", "--s", "1", "--N", "6"],
     {"N": 5, "match": True}),
    (["cas", "--op", "compare", "--m", "1", "--n", "2", "--s", "2", "--N", "5"],
     ["cas", "--op", "compare", "--m", "1", "--n", "2", "--s", "2", "--N", "6"],
     {"N": 5, "match": True}),
    (["ext", "--mode", "stable", "--s", "3", "--n-target", "3", "--N", "4", "--max-i", "0"],
     ["ext", "--mode", "stable", "--s", "3", "--n-target", "3", "--N", "5", "--max-i", "0"],
     {"dims": [0]}),
], ids=["ext-stable", "compare-default-N", "compare", "ext-stable-max-dim"])
def test_stable_guards_charge_only_level_n(capsys, argv, up, result):
    # stable Ext and cas compare count level N+1 and list level N, so
    # neither N + 1 = 6 above the cap 5 nor P(3, 3, 5) of dimension 61440
    # above --max-dim 50000 refuses
    code, lines = run_json(capsys, argv)
    assert code == 0
    assert result.items() <= lines[-1]["result"].items()
    # one level up, the listed level is over the bounds
    assert main(up) == 2
    capsys.readouterr()


def test_max_dim_bounds_free_covers(capsys):
    # both modules fit in 50 basis elements, but the strand cochains of
    # degree 2 are C(3, 1) = 3 copies of the target P(1, 1, 3)
    argv = ["ext", "--mode", "truncated", "--s", "1", "--src", "Q,1,2", "--dst", "P,1,1",
            "--N", "3", "--max-i", "1"]
    assert main(["--format", "json", "--max-dim", "50", *argv]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "a sum of 3 P modules of dimension 72" in out.err
    code, lines = run_json(capsys, ["--max-dim", "144", *argv])
    assert code == 0 and lines[-1]["result"]["dims"] == [6, 0]


def test_stable_ext_guard_counts_the_largest_coresolution_term(capsys):
    # one P(2, 3, 5) has dimension 14580, but the last coresolution term is a
    # sum of C(11, 2) = 55 copies of P(2, 3, 4), of dimension 1944 each
    argv = ["ext", "--mode", "stable", "--s", "2", "--n-target", "3", "--N", "4",
            "--max-i", "8"]
    assert main(["--format", "json", *argv]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "a sum of 55 P modules of dimension 106920" in out.err
    # at s = 1 that term has 55 * 384 = 21120 basis elements, and the request runs
    code, lines = run_json(capsys, [*argv[:4], "1", *argv[5:]])
    assert code == 0 and lines[-1]["result"]["dims"] == [0] * 9


def test_injective_guard_counts_the_morphism_space(capsys):
    # at m = n the socle is solved on all 9! * 3^9 morphisms [9] -> [9];
    # this request used to run for more than 8 s
    assert main(["cas", "--op", "injective", "--m", "9", "--n", "9", "--s", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "dimension 7142567040 exceeds --max-dim 50000" in out.err
    code, lines = run_json(capsys, ["--max-dim", "162", "cas", "--op", "injective",
                                    "--m", "3", "--n", "3", "--s", "2"])
    assert code == 0 and lines[-1]["result"] == {"dim": 162, "socle_dim": 6}
    # away from the top degree nothing is built, so the guard does not apply
    code, lines = run_json(capsys, ["cas", "--op", "injective", "--m", "2", "--n", "9", "--s", "2"])
    assert code == 0 and lines[-1]["result"] == {"dim": 1417176, "socle_dim": 0}


def test_env_override_for_dimension_guard(capsys, monkeypatch):
    monkeypatch.setenv("EQUIVAR_MAX_DIM", "10")
    assert main(["dim", "--kind", "Q", "--s", "1", "--n", "1", "--N", "3"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("EQUIVAR_MAX_DIM", "100000")
    assert main(["dim", "--kind", "Q", "--s", "1", "--n", "1", "--N", "3"]) == 0
    capsys.readouterr()


def test_json_output_is_deterministic(capsys):
    def payload(argv):
        code, lines = run_json(capsys, argv)
        assert code == 0
        data = lines[-1]
        data.pop("runtime_ms")
        return json.dumps(data, sort_keys=True)

    argv = ["hom", "--src", "Q,1,1", "--dst", "Q,1,0", "--N", "3"]
    assert payload(argv) == payload(argv)
    argv = ["kclass", "--op", "p2q", "--s", "2", "--lambda", "2,1"]
    assert payload(argv) == payload(argv)


# class-function tables and their dimension are written as rational strings
# ("1/2") on purpose; every other number in a payload is a JSON number
RATIONAL_STRING_FIELDS = {("tor", "character"), ("tor", "dim"), ("kclass", "values")}
NUMBER_TEXT = re.compile(r"^-?\d+(/\d+)?$")


def _strings(obj, path=()):
    if isinstance(obj, str):
        yield path, obj
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _strings(v, path + (k,))
    elif isinstance(obj, list):
        for v in obj:
            yield from _strings(v, path)


@pytest.mark.parametrize("argv", [
    ["dim", "--kind", "P", "--s", "1", "--n", "2", "--N", "3", "--dump"],
    ["dim", "--kind", "Q", "--s", "2", "--n", "1", "--N", "3", "--dump"],
    ["hom", "--src", "Q,1,2", "--dst", "Q,1,1", "--N", "4"],
    ["ext", "--mode", "truncated", "--s", "1", "--N", "3", "--max-i", "2"],
    ["ext", "--mode", "stable", "--s", "1", "--n-source", "1", "--n-target", "2", "--N", "3",
     "--max-i", "2"],
    ["tor", "--s", "2", "--r", "3", "--N", "4"],
    ["kclass", "--op", "char", "--n", "3", "--s", "1"],
    ["kclass", "--op", "q2p", "--s", "2", "--lambda", "3,1"],
    ["kclass", "--op", "expand", "--kind", "Q", "--s", "1", "--lambda", "2,1"],
    ["cas", "--op", "hom", "--m", "1", "--n", "2", "--s", "1"],
    ["cas", "--op", "injective", "--m", "2", "--n", "1", "--s", "1"],
    ["cas", "--op", "compare", "--m", "1", "--n", "1", "--s", "1"],
])
def test_json_payloads_have_no_stringified_numbers(capsys, monkeypatch, argv):
    # _emit dumps with default=str, so a Fraction that reached it would print
    # as the string "1" where an int prints as the number 1
    emitted = []

    def record(args, payload):
        emitted.append(payload)
        cli_emit(args, payload)

    monkeypatch.setattr(equivar.cli, "_emit", record)
    code, lines = run_json(capsys, argv)
    assert code == 0 and len(emitted) == 1
    assert json.loads(json.dumps(emitted[0])) == lines[-1]  # no value needs default=str
    op = lines[-1]["operation"]
    for path, text in _strings(lines[-1]):
        if path[0] == "result" and (op, path[1]) in RATIONAL_STRING_FIELDS:
            continue
        assert not NUMBER_TEXT.match(text), (path, text)


def test_verify_single_suite_json_lines(capsys):
    code, lines = run_json(capsys, ["verify", "--suite", "qqmaps", "--max-N", "3"])
    assert code == 0
    *checks, summary = lines
    assert summary["result"]["failures"] == 0
    assert summary["result"]["checks"] == len(checks)
    for check in checks:
        jsonschema.validate(check, CHECK_SCHEMA)
        assert check["ok"] is True


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "tor", "--max-N", "0"],
    ["verify", "--suite", "qqmaps", "--max-N", "1"],
    ["verify", "--suite", "all", "--max-N", "-1"],
    ["verify", "--suite", "ext-self", "--max-N", "1"],
])
def test_verify_without_checks_exits_two(capsys, argv):
    # a run that checks nothing is a bad request, not a success
    assert main(["--format", "json", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_verify_ext_self_respects_max_N(capsys):
    code, lines = run_json(capsys, ["verify", "--suite", "ext-self", "--max-N", "2"])
    assert code == 0
    assert [c["parameters"]["N"] for c in lines[:-1]] == [2, 2]
    code, lines = run_json(capsys, ["verify", "--suite", "all", "--max-N", "1"])
    assert code == 0
    assert lines[:-1] and all(c["suite"] != "ext-self" for c in lines[:-1])
    assert all(c["parameters"].get("N", 1) <= 1 for c in lines[:-1])


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "equivar.cli", "--format", "json",
         "dim", "--kind", "Q", "--s", "0", "--n", "0", "--N", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout.strip().splitlines()[-1])
    assert payload["result"]["dim"] == 1
