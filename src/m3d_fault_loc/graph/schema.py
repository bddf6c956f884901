"""Circuit-graph schema: the contract between data pipeline and model.

Every graph that reaches training or inference must conform to this schema;
the ``m3dlint`` contract checker (:mod:`m3d_fault_loc.analysis.graph_rules`)
statically validates conformance before the loader hands graphs to the model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

#: Node feature columns, in storage order.
FEATURE_COLUMNS: tuple[str, ...] = (
    "gate_delay",
    "nominal_slack",
    "observed_slack",
    "slack_delta",
    "fanin",
    "fanout",
    "tier_frac",
    "is_pi",
    "is_po",
)

#: Edge feature columns, in storage order.
EDGE_FEATURE_COLUMNS: tuple[str, ...] = ("wire_delay",)

#: Required dtype for node/edge feature matrices.
NODE_DTYPE = np.dtype(np.float32)
#: Required dtype for index/tier arrays.
INDEX_DTYPE = np.dtype(np.int64)

#: Edge types: intra-tier net vs. monolithic inter-tier via.
EDGE_NET = 0
EDGE_MIV = 1

#: Array-valued graph fields, in storage order.
ARRAY_FIELDS: tuple[str, ...] = (
    "x", "tier", "is_pi", "is_po", "edge_index", "edge_type", "edge_attr",
)

#: dtype kinds a serialized array may declare: bool, int, uint, float. The
#: itemsize cap also rules out strings, objects and structured/subarray dtypes,
#: whose one declared element can be megabytes wide.
PAYLOAD_DTYPE_KINDS = "biuf"
PAYLOAD_MAX_ITEMSIZE = 8

_MISSING = object()


def _field(payload: dict[str, Any], key: str, kind: type, default: Any = _MISSING) -> Any:
    """``payload[key]``, which must be a ``kind`` (``bool`` is not an int)."""
    value = payload.get(key, default)
    if value is _MISSING:
        raise ValueError(f"missing field {key!r}")
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{key} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def _decode_array(key: str, spec: dict[str, Any]) -> np.ndarray:
    """One ``{"dtype", "shape", "data"}`` spec, validated before allocating."""
    dtype_name, shape, data = spec.get("dtype"), spec.get("shape"), spec.get("data")
    try:
        dtype = np.dtype(dtype_name) if isinstance(dtype_name, str) else None
    except (TypeError, ValueError):
        dtype = None
    if (
        dtype is None
        or dtype.kind not in PAYLOAD_DTYPE_KINDS
        or dtype.itemsize > PAYLOAD_MAX_ITEMSIZE
    ):
        raise ValueError(f"{key}: dtype must name a bool/int/float type, got {dtype_name!r:.40}")
    if not (
        isinstance(shape, list)
        and len(shape) <= 2
        and all(type(dim) is int and dim >= 0 for dim in shape)
    ):
        raise ValueError(f"{key}: shape must be <= 2 non-negative ints, got {shape!r:.40}")
    if not isinstance(data, list) or len(data) != math.prod(shape):
        got = len(data) if isinstance(data, list) else type(data).__name__
        raise ValueError(f"{key}: shape {shape} needs {math.prod(shape)} values, got {got}")
    arr = np.asarray(data, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError(f"{key}: data must be a flat list of numbers")
    return arr.reshape(shape)


@dataclass
class CircuitGraph:
    """A circuit netlist graph ready for the localizer model.

    Arrays are stored exactly as the schema constants above dictate; the
    contract checker treats any deviation (shape, dtype, range) as a finding.
    """

    name: str
    num_tiers: int
    node_names: list[str]
    x: np.ndarray  # (N, len(FEATURE_COLUMNS)) NODE_DTYPE
    tier: np.ndarray  # (N,) INDEX_DTYPE
    is_pi: np.ndarray  # (N,) bool
    is_po: np.ndarray  # (N,) bool
    edge_index: np.ndarray  # (2, E) INDEX_DTYPE, [driver; sink]
    edge_type: np.ndarray  # (E,) INDEX_DTYPE, EDGE_NET | EDGE_MIV
    edge_attr: np.ndarray  # (E, len(EDGE_FEATURE_COLUMNS)) NODE_DTYPE
    fault_index: int | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return len(self.node_names)

    @property
    def num_edges(self) -> int:
        return int(self.edge_index.shape[1]) if self.edge_index.ndim == 2 else 0

    def feature(self, column: str) -> np.ndarray:
        """Return one node-feature column by schema name."""
        return self.x[:, FEATURE_COLUMNS.index(column)]

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.edge_index[1], minlength=self.num_nodes).astype(
            INDEX_DTYPE, copy=False
        )

    def out_degrees(self) -> np.ndarray:
        return np.bincount(self.edge_index[0], minlength=self.num_nodes).astype(
            INDEX_DTYPE, copy=False
        )

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict[str, Any]:
        """Serialize to a JSON-compatible dict, preserving array dtypes."""

        def arr(a: np.ndarray) -> dict[str, Any]:
            return {"dtype": str(a.dtype), "shape": list(a.shape), "data": a.ravel().tolist()}

        return {
            "schema_version": 1,
            "name": self.name,
            "num_tiers": self.num_tiers,
            "node_names": list(self.node_names),
            **{key: arr(getattr(self, key)) for key in ARRAY_FIELDS},
            "fault_index": self.fault_index,
            "meta": self.meta,
        }

    @classmethod
    def from_json_dict(cls, payload: dict[str, Any]) -> CircuitGraph:
        """Deserialize, honoring the dtype recorded in the payload.

        Dtypes are reconstructed as written rather than coerced to the schema
        dtype — a payload that declares the wrong dtype round-trips to a graph
        the contract checker can flag, instead of being silently "fixed".
        Decoding is strict about everything else: a field of the wrong JSON
        type, a non-numeric dtype or a shape that disagrees with its data
        raises ``ValueError`` before any array is allocated, so a small
        payload cannot make the decoder allocate more than it holds.
        """
        if not isinstance(payload, dict):
            raise ValueError(f"graph payload must be an object, got {type(payload).__name__}")
        node_names = _field(payload, "node_names", list)
        if not all(isinstance(name, str) for name in node_names):
            raise ValueError("node_names must be a list of strings")
        fault_index = payload.get("fault_index")
        if fault_index is not None:
            fault_index = _field(payload, "fault_index", int)
        arrays = {key: _decode_array(key, _field(payload, key, dict)) for key in ARRAY_FIELDS}
        return cls(
            name=_field(payload, "name", str),
            num_tiers=_field(payload, "num_tiers", int),
            node_names=node_names,
            fault_index=fault_index,
            meta=dict(_field(payload, "meta", dict, default={})),
            **arrays,
        )

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_json_dict()))
        return path

    @classmethod
    def load(cls, path: str | Path) -> CircuitGraph:
        return cls.from_json_dict(json.loads(Path(path).read_text()))
