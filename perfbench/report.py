"""Print every end-to-end metric of every workload, by name and unit.

    python3 perfbench/report.py [--trace]

Runs run.py once per workload, with seed 1 and the run_seconds of
BENCHMARK.json, and prints one table row per metric, plus failed_ratio,
the unadjusted times and the run's context. With --trace it adds a
traced run per workload and prints the per-layer split. Exits 1 if any
answer was wrong.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SEED = 1


def run(workload: str, trace: int) -> tuple[dict, dict]:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--trace", action="store_true", help="also print the per-layer split")
    args = p.parse_args()
    all_right = True
    for trace in (0, 1) if args.trace else (0,):
        for workload in WORKLOADS:
            context, result = run(workload, trace)
            all_right &= result["correct"]
            print(f"\n{workload} ({'traced, 1 worker' if trace else 'untraced'}; "
                  f"{context['passes']} passes, correct={result['correct']})")
            for name, m in result["metrics"].items():
                print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
            print(f"  {'failed_ratio':36s} {context['failed_ratio']:>14.6g} ratio"
                  f"  ({result['failed']} of {result['attempted']})")
            for line in context["refused"] + context["wrong"]:
                print(f"    {line}")
            for name, value in context["unadjusted"].items():
                print(f"  {name + ' (unadjusted)':36s} {value:>14.6g} s")
            print(f"  context: nproc={context['nproc']} python={context['python']} "
                  f"workers={context['workers']} src_sloc={context['src_sloc']} "
                  f"gauge_s={context['gauge_s']:.3g}")
    return 0 if all_right else 1


if __name__ == "__main__":
    sys.exit(main())
