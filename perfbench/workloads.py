"""The benchmark's workloads: seeded lists of CLI operations with their checks.

Each operation is an argv for ``lightsout.cli.main`` (or for another
public entry point, ``call``) plus the exit code the right answer has and
a check of what it printed. Input files are written into the pass's
scratch directory while the list is built, so none of that work is timed.
Why each workload looks the way it does is set out in README.md next to
this file.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

import oracle
import validate

__all__ = ["Op", "WORKLOADS", "build", "QUERY_SIZES"]


@dataclass
class Op:
    argv: list[str]
    expect_rc: int
    check: Callable[[int, str], str | None]  # (exit code, stdout) -> reason or None
    call: Callable[[list[str]], int] | None = None  # None: lightsout.cli.main
    sampled: bool = False  # runs for seconds: the host's speed is sampled while it runs


def read_back_certificate(argv: list[str]) -> int:
    """Load the certificate file ``argv[1]`` and re-check it with the library.

    Prints "verified" or "rejected"; an unreadable file raises, as the CLI
    would fail on it.
    """
    from lightsout import mcp as library

    with open(argv[1], encoding="utf-8") as fh:
        cert = library.McpCertificate.from_json(fh.read())
    print("verified" if library.verify_certificate(cert, check_min_clicks=True) else "rejected")
    return 0


# Distinct board sizes of `queries`. A cold elimination grows like n^5
# (about 0.01 s at 30, 3 s at 149), so sizes are dense below 64 and sparse
# above, with 149 as the top end. The twelve sizes from 57 up are the cold
# operations that sit above the 90th percentile of operation latency.
QUERY_SIZES = (
    30, 31, 33, 34, 35, 36, 37, 38, 40, 41, 42, 43, 44, 45, 46, 48, 49, 50,
    51, 52, 53, 54, 55, 56, 57, 58, 60, 62, 64, 68, 74, 83, 86, 92, 101, 149,
)
QUERY_REPEATS = 2  # board operations per size, after its `kernel n`
QUERY_MIN_NULLITY = 16  # `solve --min` only where the 2^d coset scan stays small
QUERY_NULLITY_OPS = 8  # `nullity n` with n drawn from [24000, 25000]
CENSUS_SAMPLE = 12  # census records recomputed by the oracle per pass
MCP_CERTIFY_K = range(1, 14)
TILE_BASE = 5  # tiles a 4x4 cover to sides 5k-1
TILE_K = range(2, 31)


def _write(tmp: str, name: str, text: str) -> str:
    path = os.path.join(tmp, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _workers(argv: list[str], workers: int | None) -> list[str]:
    return argv + ["--workers", str(workers)] if workers else argv


def census(rng: random.Random, tmp: str, workers: int | None) -> list[Op]:
    path = os.path.join(tmp, "census.csv")
    sample = rng.sample(range(5, validate.CENSUS_N_MAX + 1, 12), CENSUS_SAMPLE)
    argv = _workers(["scan", str(validate.CENSUS_N_MAX), "--fast", "--out", path], workers)
    return [Op(argv, 0, lambda rc, out: validate.check_census(rc, out, path, sample),
               sampled=True)]


def _board_op(rng: random.Random, tmp: str, n: int, want_min: bool, unsolvable: bool) -> Op:
    g = oracle.grid(n)
    board = g.lights(rng.getrandbits(n * n))
    if unsolvable:
        e = g.kernel[rng.randrange(len(g.kernel))]
        cells = [i for i in range(n * n) if (e >> i) & 1]
        board ^= 1 << rng.choice(cells)  # now odd against e, so off the image
    path = _write(tmp, f"board{rng.getrandbits(48):012x}.txt", oracle.format_pattern(n, board))
    argv = ["solve", "--min", path] if want_min else ["solve", path]
    return Op(argv, 2 if unsolvable else 0,
              lambda rc, out: validate.check_solve(n, board, want_min, rc, out))


def queries(rng: random.Random, tmp: str, workers: int | None) -> list[Op]:
    per_size = []
    for n in QUERY_SIZES:
        d = oracle.grid(n).nullity
        boards = [_board_op(rng, tmp, n, want_min=d <= QUERY_MIN_NULLITY and i % 2 == 1,
                            unsolvable=d > 0 and i == 0)
                  for i in range(QUERY_REPEATS)]
        rng.shuffle(boards)
        kernel = Op(["kernel", str(n)], 0, lambda rc, out, n=n: validate.check_kernel(n, rc, out))
        per_size.append([kernel] + boards)
    nullities = []
    for _ in range(QUERY_NULLITY_OPS):
        n = rng.randint(24000, 25000)
        nullities.append([Op(["nullity", str(n)], 0,
                             lambda rc, out, n=n: validate.check_nullity(n, rc, out))])
    # Interleave the streams at random but keep each one in order, so the
    # first operation on every size, the cold one, is its `kernel n`: the
    # cold costs then do not depend on which board a seed happens to draw.
    streams = per_size + nullities
    slots = [i for i, stream in enumerate(streams) for _ in stream]
    rng.shuffle(slots)
    return [streams[i].pop(0) for i in slots]


def mcp(rng: random.Random, tmp: str, workers: int | None) -> list[Op]:
    groups = []  # operations that must run in order: a certificate, then its read-back
    for n in (5, 4, 7):  # 7 has an empty kernel: the answer is 49
        groups.append([Op(_workers(["mcp", str(n), "--brute"], workers), 0,
                          lambda rc, out, n=n: validate.check_mcp_value(n, rc, out),
                          sampled=True)])
    for k in MCP_CERTIFY_K:
        path = os.path.join(tmp, f"cert{k}.json")
        groups.append([
            Op(["mcp", "--k", str(k), "--certify", "--out", path], 0,
               lambda rc, out, k=k, path=path: validate.check_certificate(k, rc, out, path)),
            Op(["verify_certificate", path], 0,
               lambda rc, out, k=k: validate.check_read_back(k, rc, out), read_back_certificate),
        ])
    groups.append([Op(["regions", "--k", "3"], 0, lambda rc, out: validate.check_regions(3, rc, out))])
    g = oracle.grid(TILE_BASE - 1)
    for k in TILE_K:
        cover = 0
        while not cover:
            for e in g.kernel:
                cover ^= e if rng.random() < 0.5 else 0
        path = _write(tmp, f"cover{k}.txt", oracle.format_pattern(TILE_BASE - 1, cover))
        groups.append([Op(["tile", path, str(TILE_BASE), str(k)], 0,
                          lambda rc, out, c=cover, k=k: validate.check_tile(c, TILE_BASE, k, rc, out))])
    rng.shuffle(groups)
    return [op for group in groups for op in group]


WORKLOADS = {"census": census, "queries": queries, "mcp": mcp}


def build(name: str, seed: int, tmp: str, workers: int | None) -> list[Op]:
    """The operation list of one pass; the same seed gives the same list."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), tmp, workers)
