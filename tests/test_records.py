"""The package's records are namedtuple subclasses: each keeps its field
checks, messages and repr, and survives a pickle round trip (unpickling
calls the checked ``__new__`` with the record's own fields)."""

import pickle

import pytest

from equivar.cas_cat import CasMorphism, injective_I
from equivar.equivariant import EquivModule, EquivMap, build_P, build_Q
from equivar.fi_layer import verify_phi_P
from equivar.homcalc import AssemblyError, PQFamily, StableHomResult, coresolution_Q, stable_hom
from equivar.linalg import SparseRationalMatrix
from equivar.truncated_ring import RingConfig


def _wrong_shape_map():
    Q, P = build_Q(1, 1, 2), build_P(1, 1, 2)
    return EquivMap(Q, P, SparseRationalMatrix(Q.dim, P.dim))


@pytest.mark.parametrize("build, error, message", [
    (lambda: RingConfig(-1, 0), ValueError, "RingConfig requires N >= 0 and s >= 0"),
    (lambda: PQFamily("R", 1, 1), ValueError, "unknown family kind 'R'"),
    (lambda: PQFamily("R", -1, 0), ValueError, "unknown family kind 'R'"),
    (lambda: PQFamily("P", -1, 0), ValueError, "family parameters must be nonnegative"),
    (_wrong_shape_map, ValueError, "map shape does not match the modules"),
    (lambda: StableHomResult(1, 1, 2, []), AssemblyError,
     "stable dimension exceeds a truncation dimension"),
], ids=["ring", "family-kind", "kind-before-sizes", "family-sizes", "map-shape", "stable-dim"])
def test_record_checks_keep_type_and_message(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error and str(raised.value) == message


def test_record_repr_names_its_fields():
    assert repr(RingConfig(3, 1)) == "RingConfig(N=3, s=1)"
    assert repr(PQFamily("Q", 1, 2)) == "PQFamily(kind='Q', s=1, n=2)"


def _plain(value):
    """A record as nested builtins: its class name and fields, with each
    module replaced by its JSON form (modules compare by identity)."""
    if isinstance(value, EquivModule):
        return value.to_json_dict()
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if hasattr(value, "_fields"):
        return (type(value).__name__, *map(_plain, value))
    return value


RECORDS = {
    "RingConfig": lambda: RingConfig(3, 1),
    "PQFamily": lambda: PQFamily("Q", 1, 2),
    "StableHomResult": lambda: stable_hom(PQFamily("Q", 1, 1), PQFamily("P", 1, 1), 3),
    "Complex": lambda: coresolution_Q(1, 1, 2, 2),
    "EquivMap": lambda: coresolution_Q(1, 1, 2, 2).maps[0],
    "PhiComparison": lambda: verify_phi_P(1, 1, 2),
    "CasMorphism": lambda: CasMorphism.make(1, 2, 1, {((1,), (0, 1)): 2}),
    "InjectiveInfo": lambda: injective_I(1, 2, 2),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_survives_pickle(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert _plain(back) == _plain(record)
