"""CLI for the kernel perf-trajectory harness.

Examples::

    python -m repro.bench --smoke           # quick recording
    python -m repro.bench                   # full recording
    python -m repro.bench --smoke --check   # CI regression gate
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench import (
    BenchRegression,
    KERNEL_BENCH_FILE,
    SWEEP_BENCH_FILE,
    run_bench,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Record kernel/sweep throughput to BENCH_*.json")
    parser.add_argument("--smoke", action="store_true",
                        help="small workloads (CI-sized, ~1 min)")
    parser.add_argument("--check", action="store_true",
                        help="fail on >30%% vector-speedup regression vs "
                             "the committed same-mode baseline")
    parser.add_argument("--skip-sweep", action="store_true",
                        help="unit + trace-build only (no sweep timing)")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="directory for BENCH_*.json (default: cwd)")
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    try:
        summary = run_bench(mode, args.out, check=args.check,
                            skip_sweep=args.skip_sweep)
    except BenchRegression as exc:
        print(f"BENCH REGRESSION ({mode}): {exc}", file=sys.stderr)
        return 1

    print(f"mode: {mode}")
    for workload, row in summary["unit"].items():
        print(f"  unit/{workload}: reference "
              f"{row['reference_acc_per_s']:,.0f} acc/s, vector "
              f"{row['vector_acc_per_s']:,.0f} acc/s "
              f"({row['speedup']:.2f}x)")
    build = summary["trace_build"]
    print(f"  trace build: {build['slots_bytes_per_record']} B/record @ "
          f"{build['slots_build_acc_per_s']:,.0f}/s")
    if summary["sweep"] is not None:
        sweep = summary["sweep"]
        print(f"  sweep ({sweep['cells']} cells): reference "
              f"{sweep['reference_cells_per_s']} cells/s, vector "
              f"{sweep['vector_cells_per_s']} cells/s "
              f"({sweep['speedup']:.2f}x)")
    print(f"  wrote {args.out / KERNEL_BENCH_FILE}"
          + ("" if summary["sweep"] is None
             else f" and {args.out / SWEEP_BENCH_FILE}"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
