"""Reference oracles for the whole-array contract rules.

These are the per-element loop versions of M3D101, M3D102, M3D104 and
M3D105 that the numpy rules in :mod:`m3d_fault_loc.analysis.graph_rules`
replaced. They are slow and obviously correct; the property tests assert
that each rule's ``(message, location, context)`` list equals its oracle's.

The oracles assume well-formed storage (integer index arrays of the right
shapes, in-bounds edges); graphs that fail those guards are M3D106's finding,
and the rules skip them rather than crash.
"""

from __future__ import annotations

from collections.abc import Callable

from m3d_fault_loc.analysis.engine import GraphRule
from m3d_fault_loc.analysis.violations import Violation
from m3d_fault_loc.graph.schema import EDGE_MIV, EDGE_NET, CircuitGraph


def _in_degrees(graph: CircuitGraph) -> list[int]:
    deg = [0] * graph.num_nodes
    for v in graph.edge_index[1]:
        deg[int(v)] += 1
    return deg


def _out_degrees(graph: CircuitGraph) -> list[int]:
    deg = [0] * graph.num_nodes
    for u in graph.edge_index[0]:
        deg[int(u)] += 1
    return deg


def cyclic_oracle(rule: GraphRule, graph: CircuitGraph) -> list[Violation]:
    n = graph.num_nodes
    indeg = _in_degrees(graph)
    fanouts: list[list[int]] = [[] for _ in range(n)]
    for u, v in graph.edge_index.T:
        fanouts[int(u)].append(int(v))
    stack = [i for i in range(n) if indeg[i] == 0]
    seen = 0
    while stack:
        u = stack.pop()
        seen += 1
        for v in fanouts[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                stack.append(v)
    if seen == n:
        return []
    cyclic = [graph.node_names[i] for i in range(n) if indeg[i] > 0]
    return [
        rule.violation(
            f"combinational cycle through {len(cyclic)} node(s): {', '.join(cyclic[:5])}",
            location=f"graph {graph.name}",
            nodes=cyclic[:16],
        )
    ]


def dangling_oracle(rule: GraphRule, graph: CircuitGraph) -> list[Violation]:
    findings: list[Violation] = []
    indeg = _in_degrees(graph)
    outdeg = _out_degrees(graph)
    for i in range(graph.num_nodes):
        name = graph.node_names[i]
        if indeg[i] == 0 and not graph.is_pi[i]:
            findings.append(
                rule.violation("undriven net: node has no fanin and is not a primary input",
                               location=f"node {name}")
            )
        if outdeg[i] == 0 and not graph.is_po[i]:
            findings.append(
                rule.violation("floating net: node has no fanout and is not a primary output",
                               location=f"node {name}")
            )
    return findings


def miv_oracle(rule: GraphRule, graph: CircuitGraph) -> list[Violation]:
    findings: list[Violation] = []
    for e in range(graph.num_edges):
        if int(graph.edge_type[e]) != EDGE_MIV:
            continue
        u, v = int(graph.edge_index[0, e]), int(graph.edge_index[1, e])
        span = abs(int(graph.tier[u]) - int(graph.tier[v]))
        if span != 1:
            findings.append(
                rule.violation(
                    f"MIV edge spans {span} tier boundaries (must be exactly 1)",
                    location=f"edge {graph.node_names[u]}->{graph.node_names[v]}",
                    span=span,
                )
            )
    return findings


def edge_tier_oracle(rule: GraphRule, graph: CircuitGraph) -> list[Violation]:
    findings: list[Violation] = []
    for e in range(graph.num_edges):
        et = int(graph.edge_type[e])
        u, v = int(graph.edge_index[0, e]), int(graph.edge_index[1, e])
        loc = f"edge {graph.node_names[u]}->{graph.node_names[v]}"
        if et not in (EDGE_NET, EDGE_MIV):
            findings.append(rule.violation(f"unknown edge type {et}", location=loc))
        elif et == EDGE_NET and int(graph.tier[u]) != int(graph.tier[v]):
            findings.append(
                rule.violation(
                    "intra-tier edge connects different tiers "
                    f"({int(graph.tier[u])} -> {int(graph.tier[v])}); "
                    "tier-crossing edges must be typed as MIV",
                    location=loc,
                )
            )
    return findings


#: rule id -> loop oracle.
ORACLES: dict[str, Callable[[GraphRule, CircuitGraph], list[Violation]]] = {
    "M3D101": cyclic_oracle,
    "M3D102": dangling_oracle,
    "M3D104": miv_oracle,
    "M3D105": edge_tier_oracle,
}
