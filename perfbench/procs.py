"""Spawn, watch and tear down the real ``m3d-*`` processes.

Every process the benchmark starts goes through :class:`ProcessSet`, whose
``close()`` SIGTERMs each one (the CLIs drain on SIGTERM), waits, kills any
that outlive the grace period and reaps them all. ``close()`` runs on every
exit path: normal return, a failed check, an early server exit, SIGTERM and
Ctrl-C.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Seconds a spawned server may take to print its address and answer 200.
BOOT_TIMEOUT_S = 60.0
#: Seconds a SIGTERMed process gets to drain before it is killed.
STOP_GRACE_S = 15.0
_POLL_S = 0.005
_ADDR_RE = re.compile(r"(?:serving|routing) on http://([\d.]+):(\d+)")


class ProcessExited(RuntimeError):
    """A spawned process ended before it was asked to."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Proc:
    """One child process with stdout/stderr captured to files in ``workdir``."""

    def __init__(self, name: str, argv: list[str], workdir: Path):
        self.name = name
        self.out_path = workdir / f"{name}.out"
        self.err_path = workdir / f"{name}.err"
        with self.out_path.open("wb") as out, self.err_path.open("wb") as err:
            self.spawned_wall = time.time()
            self.spawned_at = time.perf_counter()
            self.popen = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        self.addr: tuple[str, int] | None = None

    @property
    def pid(self) -> int:
        return self.popen.pid

    def running(self) -> bool:
        return self.popen.poll() is None

    def tail(self, n: int = 12) -> str:
        lines: list[str] = []
        for path in (self.out_path, self.err_path):
            if path.exists():
                lines += path.read_text(errors="replace").splitlines()[-n:]
        return "\n".join(lines)

    def check_alive(self) -> None:
        if not self.running():
            raise ProcessExited(
                f"{self.name} (pid {self.pid}) exited early with code {self.popen.returncode}:\n"
                f"{self.tail()}"
            )

    def wait_for_address(self, deadline: float) -> tuple[str, int]:
        """Parse ``serving on``/``routing on http://host:port`` from stdout."""
        while time.perf_counter() < deadline:
            match = _ADDR_RE.search(self.out_path.read_text(errors="replace"))
            if match:
                self.addr = (match.group(1), int(match.group(2)))
                return self.addr
            self.check_alive()
            time.sleep(_POLL_S)
        raise TimeoutError(f"{self.name} printed no address within {BOOT_TIMEOUT_S} s")

    def vm_hwm_kb(self) -> int:
        """Peak resident set (``VmHWM``) of a live process, in kB."""
        status = Path(f"/proc/{self.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
        if match is None:
            raise RuntimeError(f"no VmHWM for {self.name}")
        return int(match.group(1))

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL past the grace period."""
        if self.popen.poll() is None:
            self.popen.send_signal(signal.SIGTERM)
            try:
                self.popen.wait(timeout=STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                self.popen.kill()
                self.popen.wait()


class ProcessSet:
    """Every process one benchmark run spawned; ``close()`` stops them all."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.procs: list[Proc] = []

    def spawn(self, name: str, module: str, *args: str) -> Proc:
        proc = Proc(name, [sys.executable, "-m", module, *args], self.workdir)
        self.procs.append(proc)
        return proc

    def stop(self, procs: list[Proc]) -> None:
        """SIGTERM all of ``procs`` at once, then wait for (or kill) each."""
        for proc in procs:
            if proc.running():
                proc.popen.send_signal(signal.SIGTERM)
        for proc in procs:
            proc.stop()
        self.procs = [p for p in self.procs if p not in procs]

    def close(self) -> None:
        self.stop(list(self.procs))


def install_termination_handlers() -> None:
    """Turn SIGTERM into ``SystemExit`` so ``finally`` blocks tear down."""

    def handle(signum: int, frame: Any) -> None:
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handle)


# -- HTTP helpers ------------------------------------------------------------


def http_get(addr: tuple[str, int], path: str, timeout_s: float = 5.0) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(addr[0], addr[1], timeout=timeout_s)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def get_json(addr: tuple[str, int], path: str) -> dict[str, Any]:
    status, body = http_get(addr, path)
    if status != 200:
        raise RuntimeError(f"GET {path} on {addr} answered {status}")
    return json.loads(body)


def wait_healthy(targets: list[tuple[Proc, str]], deadline: float) -> None:
    """Poll each ``(proc, health path)`` until every one answers 200."""
    pending = list(targets)
    while pending:
        proc, path = pending[0]
        proc.check_alive()
        assert proc.addr is not None
        try:
            status, _ = http_get(proc.addr, path, timeout_s=1.0)
        except OSError:
            status = 0
        if status == 200:
            pending.pop(0)
            continue
        if time.perf_counter() > deadline:
            raise TimeoutError(f"{proc.name} {path} not healthy within {BOOT_TIMEOUT_S} s")
        time.sleep(_POLL_S)


@dataclass
class Stack:
    """A booted serving topology: the address clients hit and its processes."""

    front: Proc
    replicas: list[Proc]
    setup_s: float

    @property
    def servers(self) -> list[Proc]:
        return self.replicas + ([self.front] if self.front not in self.replicas else [])

    def check_alive(self) -> None:
        for proc in self.servers:
            proc.check_alive()


def boot_stack(procs: ProcessSet, model: Path, n_replicas: int, tag: str) -> Stack:
    """Spawn ``n_replicas`` ``m3d-serve`` (plus ``m3d-route`` when there are several)
    with shipped default flags apart from the port and the model; ``setup_s``
    runs from the first spawn until every ``/healthz`` and ``/router/healthz``
    answers 200."""
    replicas = [
        procs.spawn(f"serve-{tag}-{i}", "m3d_fault_loc.cli.serve",
                    "--model", str(model), "--port", "0")
        for i in range(n_replicas)
    ]
    t0 = replicas[0].spawned_at
    deadline = t0 + BOOT_TIMEOUT_S
    addrs = [proc.wait_for_address(deadline) for proc in replicas]
    targets = [(proc, "/healthz") for proc in replicas]
    front = replicas[0]
    if n_replicas > 1:
        flags = ["--port", "0"]
        for host, port in addrs:
            flags += ["--replica", f"{host}:{port}"]
        front = procs.spawn(f"route-{tag}", "m3d_fault_loc.cli.route", *flags)
        front.wait_for_address(deadline)
        targets.append((front, "/router/healthz"))
    wait_healthy(targets, deadline)
    return Stack(front=front, replicas=replicas, setup_s=time.perf_counter() - t0)
