"""The whole-array contract rules equal their loop oracles, finding for finding.

Fixture graphs and ``hypothesis``-generated graphs (random DAGs in shuffled
node order, back-edges, self-loops, edge-type and tier corruptions, empty
graphs) must give the same ``(message, location, context)`` list from each
vectorized rule and from its reference loop in :mod:`rule_oracles`. The
same generator also pins two other equalities: batched scoring vs.
per-graph scoring, and ``graph_digest`` across a JSON round-trip.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import find, given
from hypothesis import strategies as st

from fixture_graphs import VIOLATION_FIXTURES, make_clean_graph, make_high_fanout_graph
from m3d_fault_loc.analysis.engine import default_engine
from m3d_fault_loc.analysis.violations import Violation
from m3d_fault_loc.graph.schema import (
    EDGE_FEATURE_COLUMNS,
    EDGE_MIV,
    EDGE_NET,
    FEATURE_COLUMNS,
    INDEX_DTYPE,
    NODE_DTYPE,
    CircuitGraph,
)
from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.serve.cache import graph_digest
from rule_oracles import ORACLES

ENGINE = default_engine()
RULES = {rule.id: rule for rule in ENGINE.rules}


def _key(findings: list[Violation]) -> list[tuple[str, str, dict]]:
    return [(v.message, v.location, v.context) for v in findings]


def _assert_rules_match_oracles(graph: CircuitGraph) -> None:
    for rule_id, oracle in ORACLES.items():
        rule = RULES[rule_id]
        assert _key(rule.check(graph, ENGINE.config)) == _key(oracle(rule, graph)), rule_id


@pytest.mark.parametrize(
    "factory",
    [*VIOLATION_FIXTURES, make_clean_graph, make_high_fanout_graph],
    ids=[*VIOLATION_FIXTURES.values(), "clean", "high-fanout"],
)
def test_rules_match_oracles_on_fixtures(factory):
    _assert_rules_match_oracles(factory())


@st.composite
def circuit_graphs(draw, min_nodes: int = 0, max_nodes: int = 40) -> CircuitGraph:
    """A random graph with usable storage and arbitrary contract defects.

    Node indices are a random permutation of a topological order, so the
    rules cannot rely on the builder's ordering. Defects are drawn counts:
    back-edges (cycles), self-loops, edge types outside {NET, MIV}, and
    tiers moved off their placement.
    """
    n = draw(st.integers(min_nodes, max_nodes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_tiers = draw(st.integers(1, 4))
    rank_to_node = rng.permutation(n)

    n_forward = draw(st.integers(0, 3 * n)) if n >= 2 else 0
    lo = rng.integers(0, max(n - 1, 1), n_forward)
    hi = lo + 1 + (rng.integers(0, n, n_forward) % np.maximum(n - 1 - lo, 1))
    src_rank, dst_rank = [lo], [hi]
    n_back = draw(st.integers(0, 3)) if n_forward else 0
    back = rng.integers(0, n_forward, n_back) if n_back else np.zeros(0, dtype=int)
    src_rank.append(hi[back])
    dst_rank.append(lo[back])
    n_self = draw(st.integers(0, 2)) if n else 0
    loops = rng.integers(0, n, n_self)
    src_rank.append(loops)
    dst_rank.append(loops)
    index_dtype = draw(st.sampled_from([INDEX_DTYPE, np.dtype(np.int32)]))
    edge_index = np.stack(
        [rank_to_node[np.concatenate(src_rank)], rank_to_node[np.concatenate(dst_rank)]]
    ).astype(index_dtype).reshape(2, -1)
    n_edges = edge_index.shape[1]

    tier = rng.integers(0, num_tiers, n).astype(INDEX_DTYPE)
    spans = np.abs(tier[edge_index[0]] - tier[edge_index[1]])
    edge_type = np.where(spans != 0, EDGE_MIV, EDGE_NET).astype(INDEX_DTYPE)
    n_bad_types = draw(st.integers(0, 3)) if n_edges else 0
    edge_type[rng.integers(0, n_edges, n_bad_types)] = rng.integers(-2, 4, n_bad_types)
    n_moved = draw(st.integers(0, 3)) if n else 0
    tier[rng.integers(0, n, n_moved)] = rng.integers(-1, num_tiers + 2, n_moved)

    flag_dtype = draw(st.sampled_from([np.dtype(bool), np.dtype(np.float64)]))
    is_pi, is_po = (
        rng.choice(np.asarray([0.0, 1.0, np.nan]), n).astype(flag_dtype) for _ in range(2)
    )
    return CircuitGraph(
        name=f"random-{n}",
        num_tiers=num_tiers,
        node_names=[f"n{i}" for i in range(n)],
        x=rng.standard_normal((n, len(FEATURE_COLUMNS))).astype(NODE_DTYPE),
        tier=tier,
        is_pi=is_pi,
        is_po=is_po,
        edge_index=edge_index,
        edge_type=edge_type,
        edge_attr=rng.random((n_edges, len(EDGE_FEATURE_COLUMNS))).astype(NODE_DTYPE),
        fault_index=int(rng.integers(0, n)) if n else None,
    )


@given(circuit_graphs())
def test_rules_match_oracles_on_random_graphs(graph):
    _assert_rules_match_oracles(graph)
    ENGINE.run(graph)  # the full catalog never raises on usable storage


@given(circuit_graphs(max_nodes=3))
def test_rules_match_oracles_on_tiny_graphs(graph):
    """Zero nodes, zero edges and lone self-loops hit every early exit."""
    _assert_rules_match_oracles(graph)


@pytest.mark.parametrize("rule_id", sorted(ORACLES))
def test_generator_reaches_every_oracle_finding(rule_id):
    """Guard against a vacuous property: some drawn graph trips each rule."""
    find(circuit_graphs(), lambda graph: bool(ORACLES[rule_id](RULES[rule_id], graph)))


def _scoring_graph(graph: CircuitGraph) -> CircuitGraph:
    graph.is_pi = np.asarray(graph.is_pi, dtype=bool)
    graph.is_po = np.asarray(graph.is_po, dtype=bool)
    graph.tier = np.clip(graph.tier, 0, graph.num_tiers - 1)
    graph.edge_index = graph.edge_index.astype(INDEX_DTYPE)
    return graph


@given(st.lists(circuit_graphs(min_nodes=2, max_nodes=24), min_size=1, max_size=4))
def test_batch_scores_equal_single_scores(graphs):
    # min_nodes=2: a one-node graph's (1, F) @ (F, H) takes numpy's
    # vector-matrix path, which can round the last ulp differently.
    graphs = [_scoring_graph(g) for g in graphs]
    model = DelayFaultLocalizer(hidden=8, seed=3)
    batch = model.node_scores_batch(graphs)
    for graph, scores in zip(graphs, batch):
        assert np.array_equal(scores, model.node_scores(graph))


@given(circuit_graphs())
def test_graph_digest_survives_json_roundtrip(graph):
    reloaded = CircuitGraph.from_json_dict(json.loads(json.dumps(graph.to_json_dict())))
    assert graph_digest(reloaded) == graph_digest(graph)


def _with(**fields):
    def build() -> CircuitGraph:
        graph = make_clean_graph()
        for name, value in fields.items():
            setattr(graph, name, value(graph))
        return graph

    return build


MALFORMED_STORAGE = {
    "edge-index-float": _with(edge_index=lambda g: g.edge_index.astype(np.float64)),
    "edge-index-uint64": _with(edge_index=lambda g: g.edge_index.astype(np.uint64)),
    "edge-type-short": _with(edge_type=lambda g: g.edge_type[:-1]),
    "edge-type-row": _with(edge_type=lambda g: g.edge_type.reshape(1, -1)),
    "edge-type-float": _with(edge_type=lambda g: g.edge_type.astype(np.float64)),
    "tier-unicode": _with(tier=lambda g: g.tier.astype("<U3")),
    "tier-inf": _with(tier=lambda g: np.full(g.num_nodes, np.inf)),
    "is-pi-short": _with(is_pi=lambda g: g.is_pi[:-1]),
    "is-po-2d": _with(is_po=lambda g: np.stack([g.is_po, g.is_po], axis=1)),
}


@pytest.mark.parametrize("build", MALFORMED_STORAGE.values(), ids=MALFORMED_STORAGE.keys())
def test_malformed_storage_is_m3d106_not_a_crash(build):
    assert "M3D106" in {v.rule_id for v in ENGINE.run(build())}
