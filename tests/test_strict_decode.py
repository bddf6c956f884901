"""Strict graph decoding: hostile payloads fail fast and allocate almost nothing.

``CircuitGraph.from_json_dict`` is the first thing a client's bytes reach.
Each case below is a small payload that a permissive decoder would either
turn into a huge allocation (a megabyte-wide dtype, a shape larger than its
data) or pass on to crash a contract rule (a string where a number belongs).
Every one must raise ``ValueError`` with a tracemalloc peak under 1 MB.
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from fixture_graphs import VIOLATION_FIXTURES, make_clean_graph
from m3d_fault_loc.graph.schema import CircuitGraph

PEAK_LIMIT_BYTES = 1 << 20


def _clean_payload() -> dict:
    return json.loads(json.dumps(make_clean_graph().to_json_dict()))


def _set(path: tuple[str, ...], value):
    def mutate(payload: dict) -> dict:
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return payload

    return mutate


def _drop(key: str):
    def mutate(payload: dict) -> dict:
        del payload[key]
        return payload

    return mutate


HOSTILE = {
    # dtypes: only bool/int/uint/float of at most 8 bytes
    "bytes-50MB": _set(("x", "dtype"), "S50000000"),
    "subarray": _set(("x", "dtype"), "(1000000,)f8"),
    "structured": _set(("x", "dtype"), "f8,i4"),
    "unicode": _set(("tier", "dtype"), "<U3"),
    "object": _set(("x", "dtype"), "O"),
    "complex": _set(("x", "dtype"), "c16"),
    "float128": _set(("x", "dtype"), "f16"),
    "datetime": _set(("tier", "dtype"), "M8[s]"),
    "dtype-not-string": _set(("x", "dtype"), ["f8"]),
    "dtype-unknown": _set(("x", "dtype"), "nope"),
    # shapes: a list of <= 2 non-negative ints whose product is len(data)
    "shape-huge": _set(("x", "shape"), [1_000_000_000, 9]),
    "shape-3d": _set(("x", "shape"), [4, 3, 3]),
    "shape-negative": _set(("x", "shape"), [-4, -9]),
    "shape-bool": _set(("tier", "shape"), [True]),
    "shape-float": _set(("tier", "shape"), [4.0]),
    "shape-not-list": _set(("tier", "shape"), 4),
    "data-short": _set(("tier", "data"), [0]),
    "data-not-list": _set(("tier", "data"), "0000"),
    "data-nested": _set(("tier", "data"), [[0], [1], [0], [1]]),
    "array-not-object": _set(("x",), [0.0] * 36),
    # scalar fields of the wrong JSON type (bool is not an int)
    "name-int": _set(("name",), 7),
    "num-tiers-string": _set(("num_tiers",), "2"),
    "num-tiers-bool": _set(("num_tiers",), True),
    "node-names-string": _set(("node_names",), "pi0"),
    "node-names-ints": _set(("node_names",), [0, 1, 2, 3]),
    "fault-index-string": _set(("fault_index",), "1"),
    "fault-index-bool": _set(("fault_index",), True),
    "meta-list": _set(("meta",), []),
    "missing-edge-index": _drop("edge_index"),
}


@pytest.mark.parametrize("mutate", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_payload_is_rejected_with_bounded_memory(mutate):
    payload = mutate(_clean_payload())
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            CircuitGraph.from_json_dict(payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_LIMIT_BYTES


def test_non_object_payload_is_rejected():
    with pytest.raises(ValueError, match="must be an object"):
        CircuitGraph.from_json_dict([])  # type: ignore[arg-type]


def test_wrong_but_numeric_dtypes_still_decode_for_the_gate():
    """A float64 ``x`` or ``edge_index`` is M3D106's finding, not the decoder's."""
    payload = _clean_payload()
    payload["x"]["dtype"] = "float64"
    payload["edge_index"]["dtype"] = "float64"
    graph = CircuitGraph.from_json_dict(payload)
    assert graph.x.dtype == np.float64
    assert graph.edge_index.dtype == np.float64


@pytest.mark.parametrize("factory", VIOLATION_FIXTURES, ids=VIOLATION_FIXTURES.values())
def test_fixture_graphs_roundtrip_exactly(factory):
    text = json.dumps(factory().to_json_dict())  # text, so NaN compares equal
    assert json.dumps(CircuitGraph.from_json_dict(json.loads(text)).to_json_dict()) == text


def test_optional_fields_may_be_absent():
    payload = _clean_payload()
    del payload["fault_index"], payload["meta"]
    graph = CircuitGraph.from_json_dict(payload)
    assert graph.fault_index is None and graph.meta == {}
