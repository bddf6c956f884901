"""Answer checks: every response is compared with an in-process oracle.

- A ``200`` must rank the same ``top`` node indices as
  ``DelayFaultLocalizer.load(artifact).node_scores`` and carry the same
  scores to a tight tolerance.
- A ``422`` must name exactly the rule ids ``gate_graph`` reports for the
  same (mutated) graph in-process.
- A repeat must return its first answer's ``top`` with ``cached: true``.

Anything else — another status, a transport error, a timeout, a malformed
body — is a failed operation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from inputs import FRESH, REJECT, REPEAT, TOP_K
from loadgen import Outcome
from m3d_fault_loc.data.dataset import GraphContractError, gate_graph
from m3d_fault_loc.graph.schema import CircuitGraph
from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.scenarios import build_scenario_engine

SCORE_RTOL = 1e-9
SCORE_ATOL = 1e-12


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    #: Parsed JSON body of a 200 (None otherwise).
    answer: dict | None = None


class Oracle:
    def __init__(self, model_path: Path):
        self.model = DelayFaultLocalizer.load(model_path)
        self.engine = build_scenario_engine("single_delay")

    def expected_top(self, graph: CircuitGraph) -> tuple[list[int], np.ndarray]:
        scores = self.model.node_scores(graph)
        order = np.argsort(scores)[::-1][:TOP_K]
        return [int(i) for i in order], scores[order]

    def expected_rules(self, graph: CircuitGraph) -> list[str]:
        try:
            gate_graph(graph, self.engine)
        except GraphContractError as exc:
            return sorted(v.rule_id for v in exc.violations)
        return []

    def check(self, out: Outcome, first: Verdict | None = None) -> Verdict:
        """Judge one outcome; ``first`` is the verdict of a repeat's first send."""
        if out.error is not None:
            return Verdict(False, out.error)
        kind = out.request.kind
        want = 422 if kind == REJECT else 200
        if out.status != want:
            return Verdict(False, f"{kind}: status {out.status}, expected {want}")
        try:
            answer = json.loads(out.body)
        except json.JSONDecodeError as exc:
            return Verdict(False, f"{kind}: unparseable body ({exc})")
        if kind == REJECT:
            got = sorted(v.get("rule_id", "") for v in answer.get("violations", []))
            expected = self.expected_rules(out.request.graph)
            if not expected or got != expected:
                return Verdict(False, f"reject: rules {got}, expected {expected}")
            return Verdict(True)
        top = answer.get("top")
        if not isinstance(top, list):
            return Verdict(False, f"{kind}: no top list in the answer")
        indices = [entry.get("index") for entry in top]
        scores = np.asarray([entry.get("score", np.nan) for entry in top], dtype=float)
        if kind == REPEAT:
            if first is None or not first.ok or first.answer is None:
                return Verdict(False, "repeat: first send of this body failed")
            if answer.get("cached") is not True:
                return Verdict(False, "repeat: answer not served from the cache")
            if top != first.answer["top"]:
                return Verdict(False, "repeat: top differs from the first answer")
            return Verdict(True, answer=answer)
        if kind != FRESH:
            return Verdict(False, f"unknown request kind {kind!r}")
        want_idx, want_scores = self.expected_top(out.request.graph)
        if indices != want_idx:
            return Verdict(False, f"fresh: top {indices}, expected {want_idx}")
        if not np.allclose(scores, want_scores, rtol=SCORE_RTOL, atol=SCORE_ATOL):
            return Verdict(False, "fresh: scores differ from the in-process forward pass")
        return Verdict(True, answer=answer)


def judge(oracle: Oracle, outcomes: list[Outcome]) -> list[Verdict]:
    """Verdicts in outcome order; repeats are judged against their first send."""
    verdicts: list[Verdict] = []
    by_position: dict[tuple[int, int], Verdict] = {}
    for out in sorted(outcomes, key=lambda o: (o.client, o.index)):
        first = None
        if out.request.first is not None:
            first = by_position.get((out.client, out.request.first))
        verdict = oracle.check(out, first)
        by_position[(out.client, out.index)] = verdict
    for out in outcomes:
        verdicts.append(by_position[(out.client, out.index)])
    return verdicts
