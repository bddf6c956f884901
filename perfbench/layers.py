"""Per-layer timings: the run's own inputs replayed through each layer's
public function, timed from here. Nothing under ``src/`` is instrumented.

Stage names follow the service's own vocabulary (``contract_gate``,
``cache_lookup``, ``await_result``, ``queue_wait``, ``batch_infer``).
"""

from __future__ import annotations

import json
import threading
import time
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any

import numpy as np

from m3d_fault_loc.data.dataset import CircuitGraphDataset, GraphContractError, gate_graph
from m3d_fault_loc.graph.schema import CircuitGraph
from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.model.optim import Adam
from m3d_fault_loc.obs.telemetry import percentile
from m3d_fault_loc.scenarios import build_scenario_engine
from m3d_fault_loc.serve.cache import LRUResultCache, graph_digest
from m3d_fault_loc.serve.service import LocalizationResult, LocalizationService

#: Defaults shipped by ``m3d-train`` (``--hidden``, ``--lr``, ``--batch-size``).
TRAIN_HIDDEN = 32
TRAIN_LR = 1e-2
TRAIN_BATCH = 8


def timed_ms(fn: Callable[[], Any]) -> tuple[float, Any]:
    t0 = time.perf_counter()
    value = fn()
    return (time.perf_counter() - t0) * 1e3, value


def decode_ms(bodies: Sequence[bytes]) -> float:
    """``json.loads`` + ``CircuitGraph.from_json_dict`` per request body."""
    return percentile(
        [timed_ms(lambda b=b: CircuitGraph.from_json_dict(json.loads(b)["graph"]))[0]
         for b in bodies],
        50,
    )


def contract_gate_ms(graphs: Sequence[CircuitGraph], expect_reject: bool = False) -> float:
    """``gate_graph`` with the ``single_delay`` scenario engine; 0 for no graphs."""
    if not graphs:
        return 0.0
    engine = build_scenario_engine("single_delay")

    def gate(g: CircuitGraph) -> bool:
        try:
            gate_graph(g, engine)
        except GraphContractError:
            return True
        return False

    times = []
    for g in graphs:
        ms, rejected = timed_ms(lambda g=g: gate(g))
        if rejected != expect_reject:
            raise RuntimeError(f"gate verdict for {g.name} changed between server and replay")
        times.append(ms)
    return percentile(times, 50)


def cache_lookup_ms(graphs_in_order: Sequence[CircuitGraph]) -> float:
    """``graph_digest`` + ``LRUResultCache.get`` in send order, filling on a miss."""
    cache = LRUResultCache()
    times = []
    for g in graphs_in_order:
        t0 = time.perf_counter()
        key = graph_digest(g)
        hit = cache.get(key)
        times.append((time.perf_counter() - t0) * 1e3)
        if hit is None:
            cache.put(key, True)
    return percentile(times, 50)


def batch_infer_ms(model_path: Path, graphs: Sequence[CircuitGraph], batch: int) -> float:
    """``node_scores_batch`` over consecutive chunks of ``batch`` new graphs."""
    model = DelayFaultLocalizer.load(model_path)
    batch = max(1, batch)
    times = []
    for start in range(0, len(graphs) - batch + 1, batch):
        chunk = list(graphs[start : start + batch])
        digests = [graph_digest(g) for g in chunk]
        times.append(timed_ms(lambda: model.node_scores_batch(chunk, digests=digests))[0])
    return percentile(times, 50)


def service_replay(
    model_path: Path, graphs: Sequence[CircuitGraph], clients: int = 2
) -> tuple[float, list[LocalizationResult]]:
    """``LocalizationService.localize`` at default settings from ``clients``
    threads; returns the median call time and the results."""
    service = LocalizationService(model=DelayFaultLocalizer.load(model_path))
    times: list[float] = []
    results: list[LocalizationResult] = []
    lock = threading.Lock()

    def worker(share: Sequence[CircuitGraph]) -> None:
        for g in share:
            ms, res = timed_ms(lambda g=g: service.localize(g))
            with lock:
                times.append(ms)
                results.append(res)

    threads = [
        threading.Thread(target=worker, args=(graphs[c::clients],), daemon=True)
        for c in range(clients)
    ]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        service.close()
    if any(t.is_alive() for t in threads):
        raise RuntimeError("in-process service replay did not finish")
    return percentile(times, 50), results


def encode_ms(results: Sequence[LocalizationResult]) -> float:
    """``LocalizationResult.to_json_dict`` + ``json.dumps`` per result."""
    return percentile(
        [timed_ms(lambda r=r: json.dumps(r.to_json_dict()).encode())[0] for r in results], 50
    )


def train_layers(data_dir: Path) -> dict[str, float]:
    """Load+gate time of a training directory, and one epoch of per-graph
    ``loss_and_grads`` and per-minibatch Adam steps at shipped defaults."""
    engine = build_scenario_engine("single_delay")
    load_s = percentile(
        [timed_ms(lambda: CircuitGraphDataset.load_dir(data_dir, engine=engine))[0] / 1e3
         for _ in range(3)],
        50,
    )
    dataset = CircuitGraphDataset.load_dir(data_dir, engine=engine)
    model = DelayFaultLocalizer(hidden=TRAIN_HIDDEN, seed=0)
    optimizer = Adam(model.params, lr=TRAIN_LR)
    grad_ms: list[float] = []
    step_ms: list[float] = []
    order = np.random.default_rng(0).permutation(len(dataset))
    for start in range(0, len(order), TRAIN_BATCH):
        batch = order[start : start + TRAIN_BATCH]
        grads = {k: np.zeros_like(v) for k, v in model.params.items()}
        for i in batch:
            ms, (_, g) = timed_ms(lambda i=i: model.loss_and_grads(dataset[int(i)]))
            grad_ms.append(ms)
            for k in grads:
                grads[k] += g[k] / len(batch)
        step_ms.append(timed_ms(lambda: optimizer.step(grads))[0])
    return {
        "train.load_gate_s": load_s,
        "train.loss_and_grads_ms": percentile(grad_ms, 50),
        "train.optimizer_step_ms": percentile(step_ms, 50),
    }
