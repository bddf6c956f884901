"""Scenario plugin contract: spec, generator, contract rules, eval metric.

A *scenario* is one fault physics the platform can synthesize, gate, serve,
and score — a bundle of three things:

- a **seeded dataset generator**: ``generate(spec)`` turns a
  :class:`ScenarioSpec` into labeled :class:`CircuitGraph` samples. All
  randomness must flow from ``np.random.default_rng(spec.seed)`` (enforced
  statically by m3dlint rule M3D209), so the same spec always yields a
  byte-identical dataset;
- **contract rules** (the M3D11x family): :class:`GraphRule` instances that
  validate the scenario's payload shape — the ``meta`` blocks its generator
  writes — so a malformed or cross-scenario payload is a structured 422 at
  the serving gate, never a silently wrong answer;
- an **eval metric**: ``evaluate(model, graphs, k)`` scores a model on the
  scenario's own terms (hit@k over a fault set, regression against a drift
  field, ...) and returns a flat ``{metric: value}`` dict that the CLIs
  record in telemetry.

Scenario ``meta`` blocks are *optional on inference payloads* — an unlabeled
graph is servable under any scenario — but a graph **tagged** with
``meta["scenario"] = <name>`` (which every generator except ``single_delay``
writes) must carry that scenario's block, well-formed. ``single_delay``
stays untagged so its datasets are byte-identical to the legacy injector
output.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Protocol, Sequence

import numpy as np

from m3d_fault_loc.analysis.engine import GraphRule
from m3d_fault_loc.graph.schema import CircuitGraph


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything a generator needs: dataset shape + seed + scenario knobs.

    ``params`` holds scenario-specific knobs (``k`` simultaneous faults,
    ``activation_prob``, ``n_flips``, ``max_drift`` ...); unknown keys are
    ignored so one spec can be replayed across scenarios.
    """

    n_graphs: int = 100
    n_gates: int = 40
    n_inputs: int = 6
    num_tiers: int = 2
    seed: int = 0
    params: dict[str, Any] = field(default_factory=dict)

    def rng(self) -> np.random.Generator:
        """The one RNG every draw in a generator must come from."""
        return np.random.default_rng(self.seed)


class ScoringModel(Protocol):
    """What a scenario metric needs from a model: per-node scores."""

    def node_scores(self, graph: CircuitGraph, digest: str | None = None) -> np.ndarray: ...


class Scenario(ABC):
    """One pluggable fault scenario (generator + contract rules + metric)."""

    #: Registry key; also the value of ``meta["scenario"]`` on tagged graphs
    #: and the ``scenario`` field accepted by ``/localize``.
    name: str
    description: str

    @abstractmethod
    def generate(self, spec: ScenarioSpec) -> list[CircuitGraph]:
        """Deterministically synthesize ``spec.n_graphs`` labeled samples.

        Every random draw must come from ``spec.rng()`` (m3dlint M3D209):
        same spec ⇒ byte-identical dataset.
        """

    @abstractmethod
    def contract_rules(self) -> list[GraphRule]:
        """This scenario's M3D11x payload rules (fresh instances)."""

    @abstractmethod
    def evaluate(
        self, model: ScoringModel, graphs: Sequence[CircuitGraph], k: int = 3
    ) -> dict[str, float]:
        """Score ``model`` on this scenario's own metric; flat float dict."""

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "rules": [r.id for r in self.contract_rules()],
        }


def rank_nodes(model: ScoringModel, graph: CircuitGraph, k: int) -> np.ndarray:
    """Indices of the top-``k`` scored nodes, best first (``k >= 1``)."""
    # A non-positive k would slice from the end: [::-1][:-1] keeps every
    # node but one, so hit@-1 would read as a near-perfect score.
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = model.node_scores(graph)
    return np.argsort(scores)[::-1][:k]


def hit_at_k(model: ScoringModel, graphs: Sequence[CircuitGraph], k: int) -> float:
    """Fraction of graphs whose ``fault_index`` ranks in the top-k scores.

    The one hit@k metric: ``m3d-train``, ``m3d-evaluate`` and the scenario
    metrics all call it. Raises ``ValueError`` for ``k < 1``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not graphs:
        return 0.0
    hits = sum(1 for g in graphs if g.fault_index in rank_nodes(model, g, k))
    return hits / len(graphs)
