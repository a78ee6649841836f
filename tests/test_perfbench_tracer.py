"""The benchmark's tracer (perfbench/tracing.py) wraps equivar functions by
name, so a refactor that deletes or renames one of them fails here."""

import pathlib
import sys

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
