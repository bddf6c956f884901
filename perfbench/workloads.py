"""The benchmark's workloads and the metrics each run reports."""

from __future__ import annotations

import http.client
import itertools
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import layers
from inputs import FRESH, REJECT, REPEAT, GraphShape, Request, RequestStream, write_dataset
from loadgen import Outcome, PassResult, run_pass, send_one, write_spans
from oracle import Oracle, Verdict, judge
from procs import ProcessSet, Stack, boot_stack, get_json
from m3d_fault_loc.obs.telemetry import percentile, read_jsonl
from m3d_fault_loc.serve.router import HashRing, ReplicaRouter

CLIENTS = 2
#: Server boots per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Latency samples a run collects at least, so the p99 reported in the run's
#: context has >= 10 samples beyond it.
MIN_SAMPLES = 1010
#: A pass never measures longer than this many times ``--seconds``.
CAP_FACTOR = 4
#: Requests pre-generated per request the warm-up rate says a pass needs.
POOL_MARGIN = 1.5
WARMUP_PER_CLIENT = 8
FRESH_CONN_PER_CLIENT = 40
ROUTE_OVERHEAD_BODIES = 120
#: Largest number of graphs replayed in-process per layer.
REPLAY_MAX = 240
#: ``m3d-train --seed`` and the seed of the served model's training set: the
#: same in every run, so the served model (and hit@1) does not change with
#: --seed; only the requests do.
MODEL_SEED = 0
MODEL_DATA_SEED = 2022
TRAIN_TIMEOUT_S = 120.0

E2E_UNITS = {
    "setup_s": "s",
    "localize_p50_ms": "ms",
    "localize_p90_ms": "ms",
    "localize_rps": "1/s",
    "peak_rss_mb": "MB",
    "heldout_hit1": "ratio",
}

LAYER_UNITS = {
    "http.send_ms": "ms",
    "http.wait_headers_ms": "ms",
    "http.read_body_ms": "ms",
    "http.fresh_conn_p50_ms": "ms",
    "decode_ms": "ms",
    "contract_gate_ms": "ms",
    "contract_gate_reject_ms": "ms",
    "cache_lookup_ms": "ms",
    "cache.hit_ratio": "ratio",
    "await_result_ms": "ms",
    "queue_wait_ms": "ms",
    "batch_infer_ms": "ms",
    "batch.size_mean": "count",
    "encode_ms": "ms",
    "route.overhead_ms": "ms",
    "route.attempts_mean": "count",
    "route.failovers": "count",
    "layer_sum_ms": "ms",
    "unattributed_ms": "ms",
    "trace.overhead_ms": "ms",
    "train.graphs_per_s": "1/s",
    "train.setup_s": "s",
    "train.load_gate_s": "s",
    "train.loss_and_grads_ms": "ms",
    "train.optimizer_step_ms": "ms",
}

#: Layers whose p50s add up to the client-observed p50 (the layer budget).
BUDGET_LAYERS = (
    "http.send_ms", "decode_ms", "contract_gate_ms", "cache_lookup_ms", "await_result_ms",
    "encode_ms", "route.overhead_ms", "http.read_body_ms",
)


class BenchmarkError(RuntimeError):
    """The run cannot produce a result (a process failed, inputs broke)."""


@dataclass
class Run:
    """State of one benchmark invocation."""

    workdir: Path
    seed: int
    seconds: float
    trace: bool
    procs: ProcessSet = field(init=False)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    info: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.procs = ProcessSet(self.workdir)

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 8:
                self.failures.append(reason)

    def record_verdicts(self, verdicts: list[Verdict]) -> None:
        for v in verdicts:
            self.record(v.ok, v.reason)


# -- the served model ------------------------------------------------------------


@dataclass
class TrainRun:
    model: Path
    #: Spawn until the first epoch starts (epoch-0 ``ts`` − ``wall_s``).
    setup_s: float
    #: Train graphs × epochs ÷ Σ epoch ``wall_s``.
    graphs_per_s: float


def train_model(run: Run, data_dir: Path) -> TrainRun:
    """One ``m3d-train --data-dir`` process at shipped defaults. It must exit
    0 with one ``final`` and no ``aborted`` record, or the run fails."""
    log = run.workdir / "train.jsonl"
    out = run.workdir / "model.npz"
    log.unlink(missing_ok=True)  # --metrics-log appends
    proc = run.procs.spawn(
        "train", "m3d_fault_loc.cli.train", "--data-dir", str(data_dir), "--out", str(out),
        "--metrics-log", str(log), "--seed", str(MODEL_SEED),
    )
    code = proc.popen.wait(timeout=TRAIN_TIMEOUT_S)
    records = read_jsonl(log) if log.exists() else []
    epochs = [r for r in records if r.get("event") == "epoch"]
    finals = [r for r in records if r.get("event") == "final"]
    aborted = [r for r in records if r.get("event") == "aborted"]
    ok = code == 0 and bool(epochs) and len(finals) == 1 and not aborted and out.exists()
    run.record(ok, f"m3d-train: exit {code}, {len(finals)} final, {len(aborted)} aborted")
    if not ok:
        raise BenchmarkError(f"training the served model failed:\n{proc.tail()}")
    first_epoch_start = float(epochs[0]["ts"]) - float(epochs[0]["wall_s"])
    return TrainRun(
        model=out,
        setup_s=first_epoch_start - proc.spawned_wall,
        graphs_per_s=finals[0]["train_graphs"] * len(epochs) / sum(e["wall_s"] for e in epochs),
    )


# -- serving -------------------------------------------------------------------


@dataclass(frozen=True)
class ServingSpec:
    shape: GraphShape
    #: Netlists the requests' fault samples are drawn over.
    netlists: int
    #: ``m3d-serve`` replicas; more than one puts ``m3d-route`` in front.
    replicas: int
    reject_every: int
    repeat_every: int
    #: Training set the served model is trained on.
    model_shape: GraphShape
    model_graphs: int


def scrape(stack: Stack) -> dict[str, float]:
    """Sum the counters/histogram totals the layer metrics need."""
    totals: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        totals[name] = totals.get(name, 0.0) + float(value)

    for proc in stack.replicas:
        assert proc.addr is not None
        metrics = get_json(proc.addr, "/metrics?format=json")
        add("requests", metrics["m3d_requests_total"]["value"])
        add("cache_hits", metrics["m3d_cache_hits_total"]["value"])
        add("batch_sum", metrics["m3d_batch_size"]["sum"])
        add("batch_count", metrics["m3d_batch_size"]["count"])
    if stack.front not in stack.replicas:
        assert stack.front.addr is not None
        router = get_json(stack.front.addr, "/router/metrics")
        add("failovers", router["m3d_route_failovers_total"]["value"])
    return totals


def delta(after: dict[str, float], before: dict[str, float], key: str) -> float:
    return after.get(key, 0.0) - before.get(key, 0.0)


def split_lists(stream: RequestStream, spec: ServingSpec, n_total: int, client_base: int,
                mix: bool = True, refill: bool = False) -> list[Iterable[Request]]:
    """``n_total`` requests over the clients, generated now, outside any timed
    window. With ``refill`` a client that uses up its share goes on with more
    from its own seeded stream, so only the pass's stop rule ends the pass."""
    per_client = max(1, -(-n_total // CLIENTS))
    lists: list[Iterable[Request]] = []
    for c in range(CLIENTS):
        requests = stream.client_requests(
            client_base + c,
            reject_every=spec.reject_every if mix else 0,
            repeat_every=spec.repeat_every if mix else 0,
        )
        head = list(itertools.islice(requests, per_client))
        lists.append(itertools.chain(head, requests) if refill else head)
    return lists


def warm_rate(result: PassResult) -> float:
    """Requests per second of the warm-up pass: sizes the request pools."""
    return len(result.outcomes) / max(result.window_s, 1e-3)


def serving(run: Run, spec: ServingSpec) -> dict[str, float]:
    model_data = write_dataset(run.workdir / "model_data", spec.model_shape, spec.model_graphs,
                               seed=MODEL_DATA_SEED)
    trained = train_model(run, model_data)
    oracle = Oracle(trained.model)
    stream = RequestStream(spec.shape, run.seed, stream=1, n_netlists=spec.netlists)
    warm = split_lists(stream, spec, CLIENTS * WARMUP_PER_CLIENT, client_base=10, mix=False)
    run.info["server_flags"] = {
        "m3d-serve": "--model <artifact> --port 0 (all other flags at shipped defaults)",
        "m3d-route": "--port 0 --replica <addr> ... (all other flags at shipped defaults)"
        if spec.replicas > 1 else None,
    }
    if run.trace:
        return serving_traced(run, spec, trained, oracle, stream, warm, model_data)

    setups: list[float] = []
    for i in range(SETUP_REPEATS):
        stack = boot_stack(run.procs, trained.model, spec.replicas, tag=str(i))
        setups.append(stack.setup_s)
        if i < SETUP_REPEATS - 1:
            run.procs.stop(stack.servers)
    warm_pass = run_pass(stack.front.addr, warm, lambda e, n: False, stack.check_alive)
    rate = warm_rate(warm_pass)
    needed = min(max(rate * run.seconds, MIN_SAMPLES), CAP_FACTOR * rate * run.seconds)
    lists = split_lists(stream, spec, int(POOL_MARGIN * needed), client_base=0, refill=True)
    main = run_pass(
        stack.front.addr, lists,
        lambda e, n: (e >= run.seconds and n >= MIN_SAMPLES) or e >= CAP_FACTOR * run.seconds,
        stack.check_alive,
    )
    stack.check_alive()
    rss_mb = sum(p.vm_hwm_kb() for p in stack.servers) / 1024
    run.procs.stop(stack.servers)
    run.record_verdicts(judge(oracle, warm_pass.outcomes))
    verdicts = judge(oracle, main.outcomes)
    run.record_verdicts(verdicts)

    lat = [o.latency_ms for o in main.outcomes if o.request.kind != REJECT and o.error is None]
    p99 = percentile(lat, 99.0)
    run.info.update(samples=len(lat), p99_ms=p99, beyond_p99=sum(v > p99 for v in lat),
                    window_s=main.window_s)
    return {
        "setup_s": percentile(setups, 50),
        "localize_p50_ms": percentile(lat, 50),
        "localize_p90_ms": percentile(lat, 90.0),
        "localize_rps": sum(v.ok for v in verdicts) / main.window_s,
        "peak_rss_mb": rss_mb,
        "heldout_hit1": hit1(main.outcomes, verdicts),
    }


def hit1(outcomes: list[Outcome], verdicts: list[Verdict]) -> float:
    """Share of correct fresh answers whose top-ranked node is the true fault."""
    hits = [
        v.answer["top"][0]["index"] == o.request.graph.fault_index
        for o, v in zip(outcomes, verdicts)
        if o.request.kind == FRESH and v.ok and v.answer
    ]
    return sum(hits) / len(hits) if hits else 0.0


def serving_traced(run: Run, spec: ServingSpec, trained: TrainRun, oracle: Oracle,
                   stream: RequestStream, warm: list[list[Request]],
                   model_data: Path) -> dict[str, float]:
    half = run.seconds / 2
    fresh_lists = split_lists(stream, spec, CLIENTS * FRESH_CONN_PER_CLIENT, client_base=40,
                              mix=False)
    stack = boot_stack(run.procs, trained.model, spec.replicas, tag="t")
    addr = stack.front.addr
    warm_pass = run_pass(addr, warm, lambda e, n: False, stack.check_alive)
    n_pass = int(POOL_MARGIN * warm_rate(warm_pass) * half)
    untraced_lists = split_lists(stream, spec, n_pass, client_base=20, refill=True)
    traced_lists = split_lists(stream, spec, n_pass, client_base=30, refill=True)
    untraced = run_pass(addr, untraced_lists, lambda e, n: e >= half, stack.check_alive)
    before = scrape(stack)
    traced = run_pass(addr, traced_lists, lambda e, n: e >= half, stack.check_alive, spans=True)
    after = scrape(stack)
    fresh = run_pass(addr, fresh_lists, lambda e, n: False, stack.check_alive,
                     fresh_connections=True)
    traced_verdicts = judge(oracle, traced.outcomes)
    overhead_ms, overhead_verdicts = 0.0, []
    if spec.replicas > 1:
        overhead_ms, overhead_verdicts = route_overhead(stack, traced.outcomes, traced_verdicts,
                                                        oracle)
    stack.check_alive()
    run.procs.stop(stack.servers)
    for result in (warm_pass, untraced, fresh):
        run.record_verdicts(judge(oracle, result.outcomes))
    run.record_verdicts(traced_verdicts)
    run.record_verdicts(overhead_verdicts)
    write_spans(run.workdir.parent / f"spans-{run.info['workload']}.jsonl", traced.spans)

    ok_200 = [o for o in traced.outcomes if o.request.kind != REJECT and o.error is None]
    fresh_graphs = [o.request.graph for o in ok_200 if o.request.kind == FRESH][:REPLAY_MAX]
    rejects = [o.request.graph for o in traced.outcomes if o.request.kind == REJECT][:REPLAY_MAX]
    in_order = [o.request.graph for o in sorted(ok_200, key=lambda o: o.t_start)]
    batch_mean = (delta(after, before, "batch_sum") / delta(after, before, "batch_count")
                  if delta(after, before, "batch_count") else 0.0)
    requests = delta(after, before, "requests")
    hit_ratio = delta(after, before, "cache_hits") / requests if requests else 0.0
    cached_flags = sum(1 for v in traced_verdicts if v.answer and v.answer.get("cached"))
    run.record(requests == len(traced.outcomes) and
               cached_flags == delta(after, before, "cache_hits"),
               f"/metrics deltas ({requests} requests, {delta(after, before, 'cache_hits')} hits)"
               f" disagree with responses ({len(traced.outcomes)}, {cached_flags} cached)")

    m = {name: 0.0 for name in LAYER_UNITS}
    m["http.send_ms"] = percentile([(o.t_sent - o.t_start) * 1e3 for o in ok_200], 50)
    m["http.wait_headers_ms"] = percentile([(o.t_headers - o.t_sent) * 1e3 for o in ok_200], 50)
    m["http.read_body_ms"] = percentile([(o.t_end - o.t_headers) * 1e3 for o in ok_200], 50)
    m["http.fresh_conn_p50_ms"] = percentile(
        [o.latency_ms for o in fresh.outcomes if o.error is None], 50)
    m["decode_ms"] = layers.decode_ms([o.request.body for o in ok_200][:REPLAY_MAX])
    m["contract_gate_ms"] = layers.contract_gate_ms(fresh_graphs)
    m["contract_gate_reject_ms"] = layers.contract_gate_ms(rejects, expect_reject=True)
    m["cache_lookup_ms"] = layers.cache_lookup_ms(in_order[:REPLAY_MAX])
    m["cache.hit_ratio"] = hit_ratio
    m["batch.size_mean"] = batch_mean
    m["batch_infer_ms"] = layers.batch_infer_ms(trained.model, fresh_graphs, round(batch_mean))
    # Per-replica concurrency: the clients' requests spread over the replicas.
    service_ms, results = layers.service_replay(trained.model, fresh_graphs,
                                                max(1, CLIENTS // spec.replicas))
    m["await_result_ms"] = service_ms - m["contract_gate_ms"] - m["cache_lookup_ms"]
    m["queue_wait_ms"] = m["await_result_ms"] - m["batch_infer_ms"]
    m["encode_ms"] = layers.encode_ms(results)
    if spec.replicas > 1:
        m["route.overhead_ms"] = overhead_ms
        attempts = [o.attempts for o in traced.outcomes if o.attempts is not None]
        m["route.attempts_mean"] = sum(attempts) / len(attempts) if attempts else 0.0
        m["route.failovers"] = delta(after, before, "failovers")
    m["train.graphs_per_s"] = trained.graphs_per_s
    m["train.setup_s"] = trained.setup_s
    m.update(layers.train_layers(model_data))
    client_p50 = percentile([o.latency_ms for o in ok_200], 50)
    untraced_p50 = percentile([o.latency_ms for o in untraced.outcomes
                               if o.request.kind != REJECT and o.error is None], 50)
    return budget(run, m, client_p50, untraced_p50)


def route_overhead(stack: Stack, outcomes: list[Outcome], verdicts: list[Verdict],
                   oracle: Oracle) -> tuple[float, list[Verdict]]:
    """Routed minus direct-to-owner p50 time-to-headers on the same, already
    answered bodies (so both sides are result-cache hits), alternating which
    goes first. Time to headers, not to the last byte: the body-read stall is
    ``http.read_body_ms``, and whether it hits one replayed request depends on
    TCP ACK timing between the two legs, not on the router."""
    replicas = {f"{p.addr[0]}:{p.addr[1]}": p.addr for p in stack.replicas if p.addr}
    ring = HashRing(list(replicas))
    answered = [(o, v) for o, v in zip(outcomes, verdicts) if o.request.kind == FRESH and v.ok]
    conns: dict[str, http.client.HTTPConnection] = {}
    routed_ms: list[float] = []
    direct_ms: list[float] = []
    checked: list[Verdict] = []

    def conn_for(key: str, addr: tuple[str, int]) -> http.client.HTTPConnection:
        if key not in conns:
            conns[key] = http.client.HTTPConnection(addr[0], addr[1], timeout=30.0)
        return conns[key]

    try:
        for i, (first, first_verdict) in enumerate(answered[:ROUTE_OVERHEAD_BODIES]):
            resend = Request(first.request.body, REPEAT, first.request.graph)
            owner = ring.preference(ReplicaRouter.routing_key("POST", "/localize", resend.body))[0]
            legs = [("router", stack.front.addr, routed_ms), (owner, replicas[owner], direct_ms)]
            for key, addr, sink in legs if i % 2 == 0 else legs[::-1]:
                out = Outcome(client=-1, index=i, request=resend)
                send_one(conn_for(key, addr), out, trace=True)
                verdict = oracle.check(out, first_verdict)
                if verdict.ok and key == "router" and out.replica != owner:
                    verdict = Verdict(False, f"routed to {out.replica}, owner is {owner}")
                checked.append(verdict)
                if out.error is None:
                    sink.append((out.t_headers - out.t_start) * 1e3)
    finally:
        for conn in conns.values():
            conn.close()
    return percentile(routed_ms, 50) - percentile(direct_ms, 50), checked


def budget(run: Run, m: dict[str, float], client_p50: float, untraced_p50: float
           ) -> dict[str, float]:
    m["layer_sum_ms"] = sum(m[name] for name in BUDGET_LAYERS)
    m["unattributed_ms"] = client_p50 - m["layer_sum_ms"]
    m["trace.overhead_ms"] = client_p50 - untraced_p50
    rows = [(name, m[name]) for name in BUDGET_LAYERS]
    rows += [("layer_sum_ms", m["layer_sum_ms"]), ("unattributed_ms", m["unattributed_ms"]),
             ("client p50 (traced)", client_p50), ("client p50 (untraced)", untraced_p50),
             ("trace.overhead_ms", m["trace.overhead_ms"])]
    run.info["layer_budget"] = {name: round(value, 4) for name, value in rows}
    return m


# -- catalog ---------------------------------------------------------------------

SMALL = GraphShape(n_gates=30, n_inputs=5, num_tiers=2)
LARGE = GraphShape(n_gates=480, n_inputs=12, num_tiers=3)

WORKLOADS: dict[str, ServingSpec] = {
    "localize_small_direct": ServingSpec(
        shape=SMALL, netlists=128, replicas=1, reject_every=16, repeat_every=0,
        model_shape=SMALL, model_graphs=160,
    ),
    "localize_large_routed": ServingSpec(
        shape=LARGE, netlists=64, replicas=2, reject_every=0, repeat_every=4,
        model_shape=GraphShape(n_gates=120, n_inputs=8, num_tiers=3),
        model_graphs=100,
    ),
}


def run_workload(run: Run, name: str) -> dict[str, float]:
    run.info["workload"] = name
    return serving(run, WORKLOADS[name])
