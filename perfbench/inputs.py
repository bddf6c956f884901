"""Seeded inputs, made with the program's own public generators.

The same ``--seed`` always yields the same netlists, fault samples, request
bodies, mutations and repeat choices. Request bodies for one client come
from that client's own random stream, so the sequence a client sends does
not depend on how the other client's requests interleave with it.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from m3d_fault_loc.data.synthetic import random_netlist
from m3d_fault_loc.faults.injector import make_fault_sample
from m3d_fault_loc.graph.netlist import Netlist
from m3d_fault_loc.graph.schema import CircuitGraph
from m3d_fault_loc.scenarios import ScenarioSpec, get_scenario

TOP_K = 5

#: Request kinds: a never-sent graph, a contract-breaking mutation (422),
#: and a byte-identical resend of a graph this client already sent.
FRESH = "fresh"
REJECT = "reject"
REPEAT = "repeat"


@dataclass(frozen=True)
class GraphShape:
    n_gates: int
    n_inputs: int
    num_tiers: int


@dataclass
class Request:
    body: bytes
    kind: str
    #: The graph the body encodes (the mutated one for ``REJECT``).
    graph: CircuitGraph
    #: For ``REPEAT``: position of the first send in the same client's list.
    first: int | None = None


def add_back_edge(graph: CircuitGraph, rng: np.random.Generator) -> CircuitGraph:
    """Break the acyclicity contract: add the reverse of one existing edge."""
    e = int(rng.integers(graph.num_edges))
    back = graph.edge_index[::-1, e : e + 1]
    return replace(
        graph,
        edge_index=np.concatenate([graph.edge_index, back], axis=1),
        edge_type=np.concatenate([graph.edge_type, graph.edge_type[e : e + 1]]),
        edge_attr=np.concatenate([graph.edge_attr, graph.edge_attr[e : e + 1]], axis=0),
    )


def encode(graph: CircuitGraph) -> bytes:
    return json.dumps({"graph": graph.to_json_dict(), "top_k": TOP_K}).encode()


class RequestStream:
    """Distinct fault samples over a seeded netlist pool.

    Every sample injects a new random delay fault into one of ``n_netlists``
    netlists, so each has its own observed-slack footprint and therefore its
    own content digest: the result cache and the aggregation-operator cache
    both miss on it, as they would on a new die.
    """

    def __init__(self, shape: GraphShape, seed: int, stream: int, n_netlists: int):
        pool_rng = np.random.default_rng([seed, stream, 0])
        self.netlists: list[Netlist] = [
            random_netlist(
                pool_rng,
                n_gates=shape.n_gates,
                n_inputs=shape.n_inputs,
                num_tiers=shape.num_tiers,
                name=f"die-{stream}-{i}",
            )
            for i in range(n_netlists)
        ]
        self.seed = seed
        self.stream = stream

    def client_requests(
        self, client: int, reject_every: int = 0, repeat_every: int = 0,
        repeat_window: int = 64,
    ) -> Iterator[Request]:
        """One client's endless request sequence: every ``reject_every``-th is
        a mutated graph, every ``repeat_every``-th resends one of the last
        ``repeat_window`` graphs this client sent fresh (0 disables). The
        first ``n`` requests do not depend on how many are taken."""
        rng = np.random.default_rng([self.seed, self.stream, client + 1])
        out: list[Request] = []
        fresh_positions: list[int] = []
        for k in itertools.count():
            if repeat_every and fresh_positions and k % repeat_every == repeat_every - 1:
                recent = fresh_positions[-repeat_window:]
                first = recent[int(rng.integers(len(recent)))]
                out.append(replace(out[first], kind=REPEAT, first=first))
            else:
                netlist = self.netlists[int(rng.integers(len(self.netlists)))]
                graph = make_fault_sample(netlist, rng)
                graph.name = f"{netlist.name}-c{client}-r{k}"
                if reject_every and k % reject_every == reject_every - 1:
                    graph = add_back_edge(graph, rng)
                    out.append(Request(encode(graph), REJECT, graph))
                else:
                    fresh_positions.append(k)
                    out.append(Request(encode(graph), FRESH, graph))
            yield out[-1]


def write_dataset(path: Path, shape: GraphShape, n_graphs: int, seed: int) -> Path:
    """A seeded ``single_delay`` dataset saved as one JSON file per graph."""
    graphs = get_scenario("single_delay").generate(
        ScenarioSpec(
            n_graphs=n_graphs,
            n_gates=shape.n_gates,
            n_inputs=shape.n_inputs,
            num_tiers=shape.num_tiers,
            seed=seed,
        )
    )
    path.mkdir(parents=True, exist_ok=True)
    for i, graph in enumerate(graphs):
        graph.save(path / f"graph_{i:05d}.json")
    return path
