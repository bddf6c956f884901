"""Early batch close: ``batch_window_s`` is an upper bound, not a fixed wait.

A batch stops collecting as soon as its shard queue is empty and no other
request is between admission in ``localize()`` and its queue. A lone
request therefore never waits out the window, while a request still inside
the contract gate keeps the window open and joins the batch.
"""

import queue
import threading
import time

import numpy as np
import pytest

from fixture_graphs import make_bad_dtype_graph
from m3d_fault_loc.analysis.engine import GraphRule, RuleConfig, default_engine
from m3d_fault_loc.analysis.violations import Severity
from m3d_fault_loc.data.dataset import GraphContractError
from m3d_fault_loc.data.synthetic import synthesize_fault_dataset
from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.serve.resilience import CircuitOpenError, LoadSheddedError
from m3d_fault_loc.serve.service import LocalizationService

#: Far longer than any request should take once the window stops being a
#: fixed wait; a regression shows up as ~1 s per request.
WINDOW_S = 1.0


@pytest.fixture(scope="module")
def graphs():
    rng = np.random.default_rng(33)
    return synthesize_fault_dataset(rng, n_graphs=6, n_gates=12, n_inputs=3)


class HoldInGate(GraphRule):
    """Test-only contract rule that parks one graph inside the gate."""

    id = "T901"
    severity = Severity.WARNING
    description = "holds the named graph in the contract gate until released"

    def __init__(self, graph_name: str):
        self.graph_name = graph_name
        self.entered = threading.Event()
        self.release = threading.Event()

    def check(self, graph, config: RuleConfig):
        if graph.name == self.graph_name:
            self.entered.set()
            self.release.wait(timeout=10.0)
        return []


def make_service(**kwargs):
    kwargs.setdefault("model", DelayFaultLocalizer(hidden=8, seed=2))
    kwargs.setdefault("batch_window_s", WINDOW_S)
    return LocalizationService(**kwargs)


def timed_localize(service, graph):
    started = time.perf_counter()
    result = service.localize(graph)
    return result, time.perf_counter() - started


def test_lone_request_does_not_wait_out_the_window(graphs):
    with make_service() as service:
        for graph in graphs[:3]:
            result, elapsed = timed_localize(service, graph)
            assert result.cached is False
            assert elapsed < WINDOW_S / 4, f"lone request waited {elapsed:.3f}s"
        assert service.m_forward_passes.value == 3


def test_request_held_in_the_gate_still_joins_the_batch(graphs):
    hold = HoldInGate(graphs[1].name)
    engine = default_engine()
    engine.register(hold)
    results = {}
    with make_service(engine=engine) as service:
        held = threading.Thread(
            target=lambda: results.setdefault("held", service.localize(graphs[1]))
        )
        held.start()
        assert hold.entered.wait(timeout=5.0)
        first = threading.Thread(
            target=lambda: results.setdefault("first", service.localize(graphs[0]))
        )
        first.start()
        # The first request is queued while the held one is still admitted:
        # its batch must keep collecting instead of closing early.
        deadline = time.monotonic() + 5.0
        while service.m_queue_depth.value == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        time.sleep(0.05)
        assert service.m_forward_passes.value == 0
        hold.release.set()
        held.join(timeout=5.0)
        first.join(timeout=5.0)
    assert set(results) == {"held", "first"}
    assert service.m_forward_passes.value == 1
    assert service.m_graphs.value == 2
    assert service.m_batch_size.count == 1


def test_every_early_exit_releases_its_admission(graphs, monkeypatch):
    """Reject, cache hit, breaker and shed all return the admission count
    to zero, so the next lone request is still answered at once."""
    with make_service() as service:
        service.localize(graphs[0])

        with pytest.raises(GraphContractError):
            service.localize(make_bad_dtype_graph())
        assert service._admitting == 0

        assert service.localize(graphs[0]).cached is True
        assert service._admitting == 0

        monkeypatch.setattr(service._breaker, "allow", lambda: False)
        with pytest.raises(CircuitOpenError):
            service.localize(graphs[1])
        monkeypatch.undo()
        assert service._admitting == 0

        def full(item):
            raise queue.Full

        monkeypatch.setattr(service._shards[0].queue, "put_nowait", full)
        with pytest.raises(LoadSheddedError):
            service.localize(graphs[2])
        monkeypatch.undo()
        assert service._admitting == 0

        _, elapsed = timed_localize(service, graphs[3])
        assert elapsed < WINDOW_S / 4, f"leaked admission held the batch {elapsed:.3f}s"
