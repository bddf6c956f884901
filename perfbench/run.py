"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload localize_small_direct --seed 1 --seconds 10 --trace 0

Run from the repository root. The program under test is imported from
``src/`` and its CLIs are spawned as real processes. The last line of
stdout is the JSON result (``correct``/``attempted``/``failed``/``metrics``);
the line before it is the run's context (operation counts, failure reasons,
``nproc``, library versions, server flags and, with ``--trace 1``, the
layer budget). Exit code 0 means a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict[str, str | int]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count() or 0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    if not (HERE.parent / "src" / "m3d_fault_loc").is_dir():
        print(f"no program to benchmark: {HERE.parent / 'src' / 'm3d_fault_loc'} is missing",
              file=sys.stderr)
        return 2
    from procs import install_termination_handlers
    from workloads import E2E_UNITS, LAYER_UNITS, Run, run_workload

    args = parse_args(argv)
    install_termination_handlers()
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(workdir=workdir, seed=args.seed, seconds=args.seconds, trace=bool(args.trace))
    try:
        values = run_workload(run, args.workload)
    finally:
        # A second signal must not cut the teardown short (it is bounded).
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        run.procs.close()
        shutil.rmtree(workdir, ignore_errors=True)
    units = LAYER_UNITS if args.trace else E2E_UNITS
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "ops": {"sent": run.attempted, "succeeded": run.attempted - run.failed,
                "failed": run.failed},
        "failures": run.failures, "env": environment(), **run.info,
    }
    if "layer_budget" in run.info:
        print(f"layer budget ({args.workload}, p50s in ms)")
        for name, value in run.info["layer_budget"].items():
            print(f"  {name:24s} {value:10.3f}")
    print(json.dumps(context))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
