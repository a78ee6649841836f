"""The benchmark's tracer (perfbench/tracing.py) wraps equivar functions by
name, so a refactor that deletes or renames one of them fails here, and a
traced benchmark run must finish with correct answers."""

import json
import pathlib
import subprocess
import sys

import pytest

import equivar.equivariant  # noqa: F401  (the tracer wraps these modules)
import equivar.homcalc
import equivar.linalg  # noqa: F401

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _traced_attributes(tracing):
    for name, modname, cls, attr, _ in tracing.TRACED:
        owner = sys.modules["equivar." + modname]
        if cls is not None:
            owner = getattr(owner, cls)
        yield name, getattr(owner, attr)


def test_tracer_installs_and_uninstalls():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    originals = dict(_traced_attributes(tracing))
    family = equivar.homcalc.PQFamily("Q", 1, 1)
    expected = equivar.homcalc.stable_hom(family, family, 2).dim_stable
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert equivar.homcalc.stable_hom(family, family, 2).dim_stable == expected
    finally:
        tracer.uninstall()
    assert dict(_traced_attributes(tracing)) == originals
    counters, _ = tracer.summary()
    assert counters["homcalc.stable_hom.calls"] == 1


@pytest.mark.parametrize("workload", ["stable-hom", "ext-truncated", "ext-stable"])
def test_traced_run_succeeds(workload):
    # the traced summary has no Echelon.add pivot ratio when no add is made,
    # and run.py reads every per-layer metric of BENCHMARK.json: a workload
    # without elimination stops the traced run with a KeyError
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--trace", "1"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
