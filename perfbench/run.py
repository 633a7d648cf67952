"""Benchmark of the lightsout CLI: one workload per run, checked answers.

    python3 perfbench/run.py --workload census|queries|mcp --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``
without installing it. With ``--trace 0`` the run repeats untraced passes
of the workload for about S seconds, each in a fresh interpreter, and
reports the end-to-end metrics (medians over passes). Their times are
adjusted for the host's speed: each operation, and each interpreter start
of setup_s, is scaled by a gauge read next to it (worker.py). With
``--trace 1`` it makes one traced pass at one worker and reports the
per-layer split.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the run's context (nproc, Python, workers, source lines, the unadjusted
times, the host-speed gauge gauge_s, failures).
README.md next to this file describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from tracer import self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_LIMIT_S = 170  # a run gives up, and kills what it started, after this long
SETUP_PER_PASS = 3  # interpreter starts timed before each pass, for setup_s
SETUP_GAUGE_S = 0.02  # the gauge reading after each start
KERNEL_PROBES = (149, 200)  # ROADMAP baseline rows, each in a fresh process


class BenchError(RuntimeError):
    pass


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for ``kind``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class Runner:
    """Starts every child of one run and holds the run's deadline."""

    def __init__(self, tmp: str) -> None:
        self.tmp = tmp
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def _spawn(self, argv: list[str]) -> str:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=left)
        except BaseException as exc:  # timed out, or this run is being stopped
            os.killpg(proc.pid, signal.SIGKILL)  # the pass, its pool and its samplers
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"timed out: {' '.join(argv[1:])}") from None
            raise
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{err[-2000:]}")
        return out

    def worker(self, *args: str) -> dict:
        out = self._spawn([sys.executable, str(HERE / "worker.py"), "--tmp", self.tmp, *args])
        return json.loads(out.strip().splitlines()[-1])

    def setup_s(self) -> tuple[float, float]:
        """Fresh interpreter start until ``import lightsout`` returns.

        Returns the seconds and the host-speed factor of a gauge reading
        the new interpreter takes right after the import, on its own CPU.
        """
        code = ("import time, lightsout; t = time.clock_gettime(time.CLOCK_MONOTONIC); "
                f"import sys; sys.path.insert(0, {str(HERE)!r}); import worker; "
                f"print(t, worker.GAUGE_REF_S / worker.gauge({SETUP_GAUGE_S}))")
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        end, speed = map(float, self._spawn([sys.executable, "-c", code]).split())
        return end - start, speed


def _pass_args(workload: str, seed: int, workers: int | None) -> list[str]:
    args = ["--workload", workload, "--seed", str(seed)]
    return args + ["--workers", str(workers)] if workers else args


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def _outcome(passes: list[dict]) -> tuple[int, int, list[str], list[str]]:
    refused = [r for p in passes for r in p["refused"]]
    wrong = [w for p in passes for w in p["wrong"]]
    attempted = sum(p["attempted"] for p in passes)
    return attempted, len(refused) + len(wrong), refused, wrong


def timed_run(runner: Runner, workload: str, seed: int,
              seconds: int) -> tuple[dict, list[dict], dict]:
    """End-to-end metrics, the passes, and the same times unadjusted."""
    runner.setup_s()  # warm-up: the first start also compiles bytecode
    setups: list[tuple[float, float]] = []
    passes = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        # Starts are spread over the run, so their median is not one moment's.
        setups += [runner.setup_s() for _ in range(SETUP_PER_PASS)]
        passes.append(runner.worker(*_pass_args(workload, seed, None)))
        took = time.monotonic() - t0
        if time.monotonic() - start + took > seconds:
            break
    attempted, failed, _, _ = _outcome(passes)
    metrics = {
        "setup_s": statistics.median(t * f for t, f in setups),
        "wall_adj_s": statistics.median(p["wall_adj_s"] for p in passes),
        "cpu_adj_s": statistics.median(p["cpu_adj_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_ratio": 1 - failed / attempted,
    }
    metrics["op_p50_adj_s"], metrics["op_p90_adj_s"] = _op_quantiles(passes, "op_adj_s")
    unadjusted = {
        "setup_s": statistics.median(t for t, _ in setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
    }
    unadjusted["op_p50_s"], unadjusted["op_p90_s"] = _op_quantiles(passes, "op_s")
    return metrics, passes, unadjusted


def _op_quantiles(passes: list[dict], key: str) -> tuple[float, float]:
    """p50 and p90, over the operation list, of each operation's median latency.

    Every pass runs the same list, so each operation has one latency per
    pass; its median is steadier than any one pass's, and the quantiles
    over operations then stay on the same operations from run to run.
    """
    op_medians = [statistics.median(lat) for lat in zip(*(p[key] for p in passes))]
    return _quantile(op_medians, 0.5), _quantile(op_medians, 0.9)


def _spans_by_name(spans: list[list]) -> dict[str, list[tuple[list, float]]]:
    own = self_times(spans)
    out: dict[str, list[tuple[list, float]]] = {}
    for span, s in zip(spans, own):
        out.setdefault(span[0], []).append((span, s))
    return out


def layer_metrics(spans: list[list], traced: dict, default: dict, one: dict,
                  probes: dict[int, dict]) -> dict[str, float]:
    by = _spans_by_name(spans)

    def self_s(name: str) -> float:
        return sum(s for _, s in by.get(name, []))

    def dur(name: str) -> list[float]:
        return [span[2] - span[1] for span, _ in by.get(name, [])]

    def attrs(name: str) -> list[dict]:
        return [span[4] for span, _ in by.get(name, [])]

    poly_calls = attrs("gf2poly.nullity_range") + attrs("gf2poly.nullity")
    blocks = [span[2] - span[1] for span, _ in by.get("gf2poly.nullity_range", [])
              if span[3] >= 0 and spans[span[3]][0].startswith("scan.")]
    kb = [(a.get("cold"), d) for a, d in zip(attrs("gridmap.kernel_basis"), dur("gridmap.kernel_basis"))]
    cold = [d for c, d in kb if c]
    brute = [a for a in attrs("mcp.mcp_bruteforce") if "error" not in a]
    cosets = sum(2 ** (a["n"] ** 2 - oracle.nullity(a["n"])) for a in brute)
    brute_s = self_s("mcp.mcp_bruteforce")
    slice_ = traced.get("slice", {})
    m = {
        "gf2poly.nullity_range.calls": len(by.get("gf2poly.nullity_range", [])),
        "gf2poly.nullity_range.self_s": self_s("gf2poly.nullity_range"),
        "gf2poly.sides": sum(a.get("sides", 0) for a in poly_calls),
        "gf2poly.degree_sum": sum(a.get("degree_sum", 0) for a in poly_calls),
        "gf2poly.sweep_s": slice_.get("sweep_s", 0.0),
        "gf2poly.compose_s": slice_.get("compose_s", 0.0),
        "gf2poly.gcd_s": slice_.get("gcd_s", 0.0),
        "gf2poly.nullity.calls": len(by.get("gf2poly.nullity", [])),
        "gf2poly.nullity.self_s": self_s("gf2poly.nullity"),
        "scan.blocks": len(blocks),
        "scan.block_p50_s": statistics.median(blocks) if blocks else 0.0,
        "scan.block_max_s": max(blocks, default=0.0),
        "scan.self_s": self_s("scan.census") + self_s("scan.scan_range"),
        "scan.write_s": sum(dur("scan.write_records_csv")),
        "scan.read_s": sum(dur("scan.read_records_csv")),
        "scan.parallel_efficiency": (one["wall_adj_s"]
                                     / ((os.cpu_count() or 1) * default["wall_adj_s"])
                                     if blocks else 0.0),
        "gridmap.kernel_basis.cold_calls": len(cold),
        "gridmap.kernel_basis.cold_s": sum(cold),
        "gridmap.kernel_basis.cold_max_s": max(cold, default=0.0),
        "gridmap.kernel_basis.warm_calls": len(kb) - len(cold),
        "gridmap.kernel_basis.hit_ratio": (len(kb) - len(cold)) / len(kb) if kb else 0.0,
        "gridmap.cache_rss_mb": traced["retained_mb"],
        "gridmap.solve_particular.self_s": self_s("gridmap.solve_particular"),
        "gridmap.is_solvable.self_s": self_s("gridmap.is_solvable"),
        "gridmap.min_clicks.self_s": self_s("gridmap.min_clicks"),
        "gridmap.min_clicks.coset_members": sum(2 ** oracle.nullity(a["n"])
                                                for a in attrs("gridmap.min_clicks") if "n" in a),
        "gridmap.apply_clicks.self_s": self_s("gridmap.apply_clicks"),
        "gridmap.pattern_io_s": sum(dur("gridmap.parse_pattern") + dur("gridmap.format_pattern")),
        "covers.region_partition.self_s": self_s("covers.region_partition"),
        "covers.tile_cover.self_s": self_s("covers.tile_cover"),
        "covers.is_even_cover.self_s": self_s("covers.is_even_cover"),
        "mcp.bruteforce.self_s": brute_s,
        "mcp.cosets": cosets,
        "mcp.cosets_per_s": cosets / brute_s if brute_s else 0.0,
        "mcp.construct.self_s": self_s("mcp.worst_case_construct"),
        "mcp.verify.self_s": self_s("mcp.verify_certificate"),
        "mcp.refused": len(attrs("mcp.mcp_bruteforce")) - len(brute),
        "cli.self_s": self_s("cli.main"),
        "cli.stdout_bytes": traced["stdout_bytes"],
        "trace.untraced_wall_s": one["wall_adj_s"],
        "trace.traced_wall_s": traced["wall_adj_s"],
        "trace.overhead_s": traced["wall_adj_s"] - one["wall_adj_s"],
    }
    for n in KERNEL_PROBES:
        m[f"baseline.kernel_basis_{n}_s"] = probes.get(n, {}).get("s", 0.0)
        m[f"baseline.kernel_basis_{n}_rss_mb"] = probes.get(n, {}).get("rss_mb", 0.0)
    return m


def traced_run(runner: Runner, workload: str, seed: int) -> tuple[dict, list[dict], dict]:
    default = runner.worker(*_pass_args(workload, seed, None))
    one = runner.worker(*_pass_args(workload, seed, 1))
    spans_path = os.path.join(runner.tmp, "spans.json")
    traced = runner.worker(*_pass_args(workload, seed, 1), "--spans", spans_path)
    with open(spans_path, encoding="utf-8") as fh:
        spans = json.load(fh)
    probes = {}
    if workload == "queries":
        probes = {n: runner.worker("--probe-kernel", str(n)) for n in KERNEL_PROBES}
    return layer_metrics(spans, traced, default, one, probes), [default, one, traced], {}


def src_sloc() -> int:
    """Non-blank, non-comment lines of the package source."""
    count = 0
    for path in sorted((SRC / "lightsout").rglob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip() and not line.lstrip().startswith("#"):
                count += 1
    return count


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # unwinds, so children are killed
    if not (SRC / "lightsout" / "__init__.py").is_file():
        print(f"error: no lightsout package under {SRC}", file=sys.stderr)
        return 2
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        runner = Runner(tmp)
        if args.trace:
            metrics, passes, unadjusted = traced_run(runner, args.workload, args.seed)
            units = declared("per_layer")
        else:
            metrics, passes, unadjusted = timed_run(runner, args.workload, args.seed,
                                                    args.seconds)
            units = declared("end_to_end")
        if set(metrics) != set(units):
            raise BenchError(f"measured {sorted(set(metrics) ^ set(units))} "
                             "not as BENCHMARK.json declares")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted, failed, refused, wrong = _outcome(passes)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workers": 1 if args.trace else os.cpu_count(),
        "src_sloc": src_sloc(),
        "passes": len(passes),
        "unadjusted": unadjusted,
        "gauge_s": statistics.median(p["gauge_s"] for p in passes),
        "failed_ratio": failed / attempted,
        "refused": sorted(set(refused)),
        "wrong": sorted(set(wrong)),
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
