"""``m3d-bench`` — run the hot-path benchmark suite, compare trajectories.

Subcommands:

- ``m3d-bench run`` — time the case catalog on the pinned size sweep and
  write the next ``BENCH_<n>.json`` (or ``--out PATH``). ``--quick`` runs a
  reduced sweep with few repeats — the CI smoke shape, not a number anyone
  should quote.
- ``m3d-bench compare OLD.json NEW.json [--fail-on-regression PCT]`` —
  per-case median ratios between two result files; with the flag, exit 1
  when any shared case slowed down by more than PCT percent.
- ``m3d-bench cases`` — print the case catalog.

Exit codes: 0 clean, 1 regression past the tripwire, 2 usage/input error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path
from typing import Any

from m3d_fault_loc.bench.cases import CASE_DESCRIPTIONS, CASES, BenchContext
from m3d_fault_loc.bench.harness import (
    BENCH_SCHEMA_VERSION,
    index_results,
    machine_fingerprint,
    time_case,
    validate_payload,
)
from m3d_fault_loc.bench.workloads import QUICK_SIZES, SIZES, build_workload
from m3d_fault_loc.utils.seed import seed_everything

EXIT_CLEAN = 0
EXIT_REGRESSION = 1
EXIT_USAGE = 2


def next_bench_path(directory: Path) -> Path:
    """First unused ``BENCH_<n>.json`` in ``directory``, counting from 1."""
    taken = set()
    for p in directory.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", p.name)
        if match:
            taken.add(int(match.group(1)))
    n = 1
    while n in taken:
        n += 1
    return directory / f"BENCH_{n}.json"


def run_benchmarks(
    sizes: dict[str, Any],
    case_names: list[str],
    ctx: BenchContext,
    repeats: int,
    warmup: int,
    quick: bool,
    seed: int,
    progress=None,
) -> dict[str, Any]:
    """Execute the suite and return the (schema-valid) result payload."""
    seed_everything(seed)
    results: list[dict[str, Any]] = []
    for size_name, spec in sizes.items():
        workload = build_workload(spec)
        for case_name in case_names:
            fn, meta, cleanup = CASES[case_name](workload, ctx)
            try:
                stats = time_case(fn, repeats=repeats, warmup=warmup)
            finally:
                if cleanup is not None:
                    cleanup()
            if progress is not None:
                progress(f"{case_name}@{size_name}: median {stats['median_s'] * 1e3:.3f} ms")
            results.append(
                {
                    "case": case_name,
                    "workload": size_name,
                    "stats": stats,
                    "meta": {
                        **meta,
                        "n_graphs": spec.n_graphs,
                        "n_gates": spec.n_gates,
                        "num_tiers": spec.num_tiers,
                        "workload_seed": spec.seed,
                    },
                }
            )
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "tool": "m3d-bench",
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": machine_fingerprint(),
        "config": {
            "quick": quick,
            "repeats": repeats,
            "warmup": warmup,
            "seed": seed,
            "sizes": list(sizes),
            "cases": case_names,
            "batch_size": ctx.batch_size,
            "concurrency": ctx.concurrency,
            "hidden": ctx.hidden,
        },
        "results": results,
    }
    return payload


def _resolve_cases(raw: str | None) -> list[str]:
    if raw is None:
        return list(CASES)
    names = [name.strip() for name in raw.split(",") if name.strip()]
    unknown = [name for name in names if name not in CASES]
    if unknown:
        raise ValueError(f"unknown case(s): {', '.join(unknown)} (see `m3d-bench cases`)")
    return names


def _resolve_sizes(raw: str | None, quick: bool) -> dict[str, Any]:
    catalog = QUICK_SIZES if quick else SIZES
    if raw is None:
        return dict(catalog)
    names = [name.strip() for name in raw.split(",") if name.strip()]
    unknown = [name for name in names if name not in catalog]
    if unknown:
        raise ValueError(
            f"unknown size(s) for this mode: {', '.join(unknown)} (have: {', '.join(catalog)})"
        )
    return {name: catalog[name] for name in names}


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        case_names = _resolve_cases(args.cases)
        sizes = _resolve_sizes(args.sizes, args.quick)
    except ValueError as exc:
        print(f"m3d-bench: {exc}", file=sys.stderr)
        return EXIT_USAGE
    repeats = args.repeats if args.repeats is not None else (3 if args.quick else 7)
    warmup = args.warmup if args.warmup is not None else (1 if args.quick else 2)
    ctx = BenchContext(
        hidden=args.hidden,
        batch_size=args.batch_size,
        concurrency=2 if args.quick and args.concurrency is None else (args.concurrency or 4),
        requests_per_client=2 if args.quick else 8,
    )
    payload = run_benchmarks(
        sizes,
        case_names,
        ctx,
        repeats=repeats,
        warmup=warmup,
        quick=args.quick,
        seed=args.seed,
        progress=lambda line: print(f"  {line}"),
    )
    errors = validate_payload(payload)
    if errors:  # a harness bug, not a user error — fail loudly
        for e in errors:
            print(f"m3d-bench: schema error: {e}", file=sys.stderr)
        return EXIT_USAGE
    out = args.out if args.out is not None else next_bench_path(args.dir)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    print(f"wrote {out}")
    return EXIT_CLEAN


def _load_payload(path: Path) -> dict[str, Any]:
    payload = json.loads(path.read_text())
    errors = validate_payload(payload)
    if errors:
        raise ValueError(f"{path}: {'; '.join(errors[:5])}")
    return payload


def compare_payloads(
    old: dict[str, Any], new: dict[str, Any], fail_pct: float | None
) -> tuple[list[dict[str, Any]], list[str]]:
    """Per-(case, workload) ratio rows + regression descriptions.

    ``ratio`` is ``new_median / old_median`` — above 1.0 is slower. A case
    regresses when it slowed down by more than ``fail_pct`` percent.
    """
    old_rows, new_rows = index_results(old), index_results(new)
    shared = sorted(set(old_rows) & set(new_rows))
    rows: list[dict[str, Any]] = []
    regressions: list[str] = []
    for key in shared:
        case, workload = key
        old_median = old_rows[key]["stats"]["median_s"]
        new_median = new_rows[key]["stats"]["median_s"]
        ratio = new_median / old_median if old_median > 0 else float("inf")
        regressed = fail_pct is not None and ratio > 1.0 + fail_pct / 100.0
        rows.append(
            {
                "case": case,
                "workload": workload,
                "old_median_s": old_median,
                "new_median_s": new_median,
                "ratio": ratio,
                "regressed": regressed,
            }
        )
        if regressed:
            regressions.append(
                f"{case}@{workload}: {old_median * 1e3:.3f} ms -> {new_median * 1e3:.3f} ms "
                f"({ratio:.2f}x, tripwire {1.0 + fail_pct / 100.0:.2f}x)"
            )
    return rows, regressions


def _cmd_compare(args: argparse.Namespace) -> int:
    try:
        old, new = _load_payload(args.old), _load_payload(args.new)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"m3d-bench: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if old["machine"] != new["machine"]:
        print(
            "m3d-bench: warning: machine fingerprints differ; "
            "ratios include hardware noise",
            file=sys.stderr,
        )
    rows, regressions = compare_payloads(old, new, args.fail_on_regression)
    if not rows:
        print("m3d-bench: no shared (case, workload) entries to compare", file=sys.stderr)
        return EXIT_USAGE
    width = max(len(f"{r['case']}@{r['workload']}") for r in rows)
    for r in rows:
        label = f"{r['case']}@{r['workload']}"
        flag = "  << REGRESSION" if r["regressed"] else ""
        print(
            f"{label:<{width}}  {r['old_median_s'] * 1e3:>10.3f} ms"
            f" -> {r['new_median_s'] * 1e3:>10.3f} ms  ({r['ratio']:.2f}x){flag}"
        )
    if regressions:
        print(
            f"m3d-bench: {len(regressions)} regression(s) past "
            f"{args.fail_on_regression:g}%:",
            file=sys.stderr,
        )
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return EXIT_REGRESSION
    print(f"m3d-bench: {len(rows)} case(s) compared, no regressions past the tripwire")
    return EXIT_CLEAN


def _cmd_cases(args: argparse.Namespace) -> int:
    width = max(len(name) for name in CASES)
    for name in CASES:
        print(f"{name:<{width}}  {CASE_DESCRIPTIONS[name]}")
    return EXIT_CLEAN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="m3d-bench", description="Offline hot-path benchmark harness."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="time the case catalog, write BENCH_<n>.json")
    run.add_argument("--out", type=Path, default=None,
                     help="output path (default: next BENCH_<n>.json in --dir)")
    run.add_argument("--dir", type=Path, default=Path("."),
                     help="directory for auto-numbered BENCH_<n>.json files")
    run.add_argument("--quick", action="store_true",
                     help="reduced sweep + few repeats (CI smoke; not quotable numbers)")
    run.add_argument("--sizes", default=None,
                     help="comma-separated workload sizes (default: full catalog)")
    run.add_argument("--cases", default=None,
                     help="comma-separated case names (default: all; see `m3d-bench cases`)")
    run.add_argument("--repeats", type=int, default=None,
                     help="recorded samples per case (default: 7, quick: 3)")
    run.add_argument("--warmup", type=int, default=None,
                     help="unrecorded warmup calls per case (default: 2, quick: 1)")
    run.add_argument("--seed", type=int, default=2022, help="global RNG seed")
    run.add_argument("--hidden", type=int, default=32, help="model hidden width")
    run.add_argument("--batch-size", type=int, default=16,
                     help="graphs per batched forward in the batch cases")
    run.add_argument("--concurrency", type=int, default=None,
                     help="client threads in e2e_localize (default: 4, quick: 2)")
    run.set_defaults(func=_cmd_run)

    compare = sub.add_parser("compare", help="median ratios between two BENCH files")
    compare.add_argument("old", type=Path)
    compare.add_argument("new", type=Path)
    compare.add_argument("--fail-on-regression", type=float, default=None, metavar="PCT",
                         help="exit 1 if any shared case slowed by more than PCT percent")
    compare.set_defaults(func=_cmd_compare)

    cases = sub.add_parser("cases", help="print the case catalog")
    cases.set_defaults(func=_cmd_cases)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":
    sys.exit(main())
