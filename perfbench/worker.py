"""One pass of one workload, in a fresh interpreter.

Runs the workload's operations one after another through
``lightsout.cli.main`` or the package's public functions (a closed loop:
the next operation starts when the last one has returned), then checks
every answer, and prints one JSON line with the pass's timings, measured
and adjusted for the host's speed, its counts and its failures. With
``--spans`` the operations run traced and the spans are written to that
file; the checks after them are not traced.

run.py starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time

import workloads

GAUGE_STEPS = 1_000  # interpreter steps in one gauge block
GAUGE_BIG = (1 << 25_000) // 3  # a census-sized polynomial, alternating bits
GAUGE_BIG_STEPS = 64  # xor-shifts of GAUGE_BIG in one gauge block
GAUGE_REF_S = 2e-4  # one block's time at the reference speed the adjusted times use
GAUGE_FIRST_S = 0.1  # the reading before the first operation, which also warms up
GAUGE_MIN_S = 0.005  # every later reading runs at least this long,
GAUGE_SHARE = 0.05  # and at least this share of the operation before it
SAMPLE_EVERY_S = 0.02  # a CpuSampler process times one gauge block this often


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024  # ru_maxrss is in KiB on Linux


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _gauge_block() -> int:
    """A fixed piece of work, half interpreter steps, half big-int xor-shifts.

    The library spends its time in both kinds of step, and the block calls
    none of its code, so a change to the library leaves the block alone.
    """
    acc = 0
    for i in range(GAUGE_STEPS):
        acc ^= i * i
    big = GAUGE_BIG
    for _ in range(GAUGE_BIG_STEPS):
        big ^= big >> 1
    return acc ^ (big & 1)


def gauge(min_s: float) -> float:
    """Seconds per gauge block, over blocks run for at least ``min_s``.

    This is how fast the CPU under this thread runs right now. Each of
    the host's CPUs changes speed from one second to the next, and not
    in step with the others, so a reading is taken at every boundary
    between two operations, on the CPU that runs them, and each operation
    is scaled by the readings on both sides of it.
    """
    blocks = 0
    t0 = time.perf_counter()
    while True:
        _gauge_block()
        blocks += 1
        took = time.perf_counter() - t0
        if took >= min_s:
            return took / blocks


class CpuSampler:
    """One process pinned to each CPU of the pass, timing a block every SAMPLE_EVERY_S.

    For operations that run for seconds, often on every CPU through a
    process pool, which readings between operations do not see. A block
    is timed in the sampler's CPU time, so waiting for the CPU does not
    count; a sampler takes about 0.5 % of its CPU. The samplers are
    processes, not threads, because the pool forks this one.
    """

    def __enter__(self) -> CpuSampler:
        self.blocks: list[list[float]] = []
        self._procs = []
        try:
            for cpu in sorted(os.sched_getaffinity(0)):
                self._procs.append(subprocess.Popen(
                    [sys.executable, __file__, "--sample-cpu", str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))
            for proc in self._procs:
                proc.stdout.readline()  # pinned and sampling
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self.blocks = self._stop()

    def _stop(self) -> list[list[float]]:
        for proc in self._procs:
            proc.stdin.close()
        out = [proc.stdout.read() for proc in self._procs]
        for proc in self._procs:
            proc.wait()
        return [json.loads(text) for text in out if text]

    def speed(self) -> float | None:
        """Reference block time times the mean block rate over CPUs and samples.

        None when some CPU has no sample, as after a very short operation.
        """
        if not self.blocks or not all(self.blocks):
            return None
        rates = [statistics.fmean(1 / b for b in blocks) for blocks in self.blocks]
        return GAUGE_REF_S * statistics.fmean(rates)


def sample_cpu(cpu: int) -> list[float]:
    """A CpuSampler's process: block times on ``cpu`` until stdin closes."""
    os.sched_setaffinity(0, {cpu})
    print("ready", flush=True)
    blocks = []
    while not select.select([sys.stdin], [], [], SAMPLE_EVERY_S)[0]:
        t0 = time.process_time()
        _gauge_block()
        blocks.append(time.process_time() - t0)
    return blocks


def _census_slice(lo: int = 20000, hi: int = 25000) -> dict:
    """Sweep, x -> x+1 and GCD time over the fast sides n in [lo, hi].

    The sweep is timed inside one nullity_range call whose filter admits
    no side, so only the recurrence runs; compose and GCD are timed per
    side through the public polynomial functions. Returns zeros when those
    functions are gone from the library.
    """
    from lightsout import gf2poly

    stamps = []

    def include(n: int) -> bool:
        stamps.append(time.perf_counter())
        return False

    gf2poly.nullity_range(lo, hi, include=include)
    out = {"sweep_s": stamps[-1] - stamps[0], "compose_s": 0.0, "gcd_s": 0.0, "slice_nullity": {}}
    try:
        poly, compose, gcd, fib = (gf2poly.BinaryPolynomial, gf2poly.poly_compose_x_plus_1,
                                   gf2poly.poly_gcd, gf2poly.fib_poly)
    except AttributeError:
        return out
    prev, cur = fib(lo).bits, fib(lo + 1).bits  # f_{n+1} for n = lo
    for n in range(lo, hi + 1):
        if n % 12 == 5:
            f = poly(cur)
            t0 = time.perf_counter()
            g = compose(f)
            t1 = time.perf_counter()
            d = gcd(f, g).degree
            t2 = time.perf_counter()
            out["compose_s"] += t1 - t0
            out["gcd_s"] += t2 - t1
            out["slice_nullity"][n] = d
        prev, cur = cur, (cur << 1) ^ prev
    return out


def run_pass(name: str, seed: int, tmp: str, workers: int | None, spans: str | None) -> dict:
    ops = workloads.build(name, seed, tmp, workers)
    from lightsout import cli

    if workers == 1:
        # Keep the pass on one CPU: the CPUs differ in speed, and the
        # readings and samplers must see the one that does the work.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tracer = None
    if spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    rss0 = _rss_mb()
    results = []
    gauges = [gauge(GAUGE_FIRST_S)]
    sampled_speed = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        sampler = CpuSampler() if op.sampled else None
        with sampler or contextlib.nullcontext():
            cpu0 = _cpu_s()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = (op.call or cli.main)(op.argv)
                except Exception as exc:  # run as a program, the CLI would exit 1 here
                    rc = 1
                    print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
            took = time.perf_counter() - start
            cpu = _cpu_s() - cpu0
        results.append((rc, out.getvalue(), err.getvalue(), took, cpu))
        sampled_speed.append(sampler.speed() if sampler else None)
        gauges.append(gauge(max(GAUGE_MIN_S, GAUGE_SHARE * took)))
    retained = _rss_mb() - rss0
    if tracer:
        if name == "census":  # read back under the tracer, for scan.read_s
            from lightsout import scan

            csv_path = ops[0].argv[ops[0].argv.index("--out") + 1]
            records = {r.n: r.nullity for r in scan.read_records_csv(csv_path)}
        tracer.uninstall()
        tracer.dump(spans)
    # Host-speed factor of each operation: the reference block time times
    # the mean block rate of the readings just before and just after it,
    # or of the CpuSampler's samples while a sampled operation ran.
    speed = [ps or GAUGE_REF_S * (1 / a + 1 / b) / 2
             for ps, a, b in zip(sampled_speed, gauges, gauges[1:])]
    report = {
        "wall_s": sum(r[3] for r in results),
        "cpu_s": sum(r[4] for r in results),
        "wall_adj_s": sum(r[3] * f for r, f in zip(results, speed)),
        "cpu_adj_s": sum(r[4] * f for r, f in zip(results, speed)),
        "peak_rss_mb": _peak_rss_mb(),
        "retained_mb": retained,
        "gauge_s": statistics.median(gauges),
        "op_s": [r[3] for r in results],
        "op_adj_s": [r[3] * f for r, f in zip(results, speed)],
        "stdout_bytes": sum(len(r[1].encode()) for r in results),
        "attempted": len(ops),
        "refused": [],
        "wrong": [],
    }
    for op, (rc, out, err, _, _) in zip(ops, results):
        if rc != op.expect_rc and rc == 1:
            report["refused"].append(f"{' '.join(op.argv)}: {err.strip()}")
            continue
        reason = op.check(rc, out)
        if reason:
            report["wrong"].append(f"{' '.join(op.argv)}: {reason}")
    if tracer and name == "census":
        report["slice"] = probe = _census_slice()
        for n, d in probe.pop("slice_nullity").items():
            if records.get(n) != d:
                report["wrong"].append(f"slice probe: d({n}) = {d}, census has {records.get(n)}")
    return report


def probe_kernel(n: int) -> dict:
    """Cold kernel_basis(n) in this fresh process: time and peak RSS."""
    from lightsout import gridmap

    t0 = time.perf_counter()
    basis = gridmap.kernel_basis(n)
    return {"s": time.perf_counter() - t0, "rss_mb": _peak_rss_mb(), "nullity": len(basis)}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=None, help="omit for the CLI default")
    p.add_argument("--tmp", help="scratch directory for inputs and outputs")
    p.add_argument("--spans", help="run traced and write spans here")
    p.add_argument("--probe-kernel", type=int, help="time one cold kernel_basis(n) instead")
    p.add_argument("--sample-cpu", type=int, help="be a CpuSampler process on this CPU")
    args = p.parse_args(argv)
    if args.sample_cpu is not None:
        report = sample_cpu(args.sample_cpu)
    elif args.probe_kernel:
        report = probe_kernel(args.probe_kernel)
    else:
        report = run_pass(args.workload, args.seed, args.tmp, args.workers, args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
