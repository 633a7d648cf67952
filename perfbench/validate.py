"""Checks of every CLI answer against the reference in oracle.py.

Each check takes what the CLI printed and returns None when the answer is
right, or a one-line reason when it is wrong. None of them calls into
lightsout.
"""

from __future__ import annotations

import csv
import json

import oracle

__all__ = [
    "PAPER_MCP",
    "CENSUS_N_MAX",
    "CENSUS_NULLITY2",
    "CENSUS_RECORDS",
    "check_census",
    "check_certificate",
    "check_kernel",
    "check_mcp_value",
    "check_nullity",
    "check_read_back",
    "check_regions",
    "check_solve",
    "check_tile",
    "mcp_formula",
]

PAPER_MCP = {4: 7, 5: 15}  # exhaustive worst cases quoted by the paper
CENSUS_N_MAX = 25000
CENSUS_NULLITY2 = 1242  # nullity-2 sides up to 25000
CENSUS_RECORDS = len(range(5, CENSUS_N_MAX + 1, 12))  # 2083 sides n = 5 mod 12


def mcp_formula(k: int) -> int:
    return 26 * k * k - 12 * k + 1


def _blocks(text: str) -> list[str]:
    """Split patterns printed one after another with a blank line between."""
    return [b + "\n" for b in text.rstrip("\n").split("\n\n")] if text.strip() else []


def check_solve(n: int, board: int, want_min: bool, rc: int, out: str) -> str | None:
    g = oracle.grid(n)
    solvable = g.solve(board) is not None
    if not solvable:
        return None if rc == 2 and out == "unsolvable\n" else "unsolvable board not reported"
    if rc != 0:
        return f"solvable board answered with exit {rc}"
    body, sep, tail = out.rpartition("clicks: ")
    if not sep or not tail.strip().isdigit():
        return "no click count"
    try:
        side, clicks = oracle.parse_pattern(body)
    except ValueError as exc:
        return f"bad click pattern: {exc}"
    if side != n:
        return f"click pattern is {side}x{side}, want {n}x{n}"
    if g.lights(clicks) != board:
        return "clicks do not produce the board"
    count = int(tail)
    if count != clicks.bit_count():
        return f"click count {count} but pattern has {clicks.bit_count()}"
    if want_min and count != g.min_clicks(board):
        return f"{count} clicks is not the minimum {g.min_clicks(board)}"
    return None


def check_kernel(n: int, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    want = oracle.grid(n).nullity
    if out == "(empty kernel)\n":
        return None if want == 0 else f"empty kernel printed, nullity is {want}"
    g = oracle.grid(n)
    vectors = []
    for block in _blocks(out):
        try:
            side, bits = oracle.parse_pattern(block)
        except ValueError as exc:
            return f"bad kernel pattern: {exc}"
        if side != n or not bits or not g.is_even_cover(bits):
            return "kernel vector is not a nonzero even cover"
        vectors.append(bits)
    if len(vectors) != want:
        return f"{len(vectors)} kernel vectors, nullity is {want}"
    if oracle.rank(vectors) != len(vectors):
        return "kernel vectors are dependent"
    return None


def check_nullity(n: int, rc: int, out: str) -> str | None:
    want = oracle.nullity(n)
    return None if rc == 0 and out == f"{want}\n" else f"nullity {out.strip()!r}, want {want}"


def check_census(rc: int, out: str, csv_path: str, sample: list[int]) -> str | None:
    """``sample`` lists sides whose record is recomputed by the oracle."""
    if rc != 0 or f"nullity-2 count: {CENSUS_NULLITY2}\n" not in out:
        return f"census summary wrong (exit {rc})"
    try:
        with open(csv_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return f"census file unreadable: {exc}"
    if not rows or rows[0] != ["n", "nullity"]:
        return "census file has no header"
    try:
        records = {int(r[0]): int(r[1]) for r in rows[1:]}
    except (ValueError, IndexError):
        return "census file has a malformed row"
    if len(rows) - 1 != CENSUS_RECORDS or sorted(records) != list(range(5, CENSUS_N_MAX + 1, 12)):
        return f"census file has {len(rows) - 1} records, want {CENSUS_RECORDS}"
    if sum(1 for d in records.values() if d == 2) != CENSUS_NULLITY2:
        return "census file disagrees with the printed count"
    for n in sample:
        if records[n] != oracle.nullity(n):
            return f"census says d({n}) = {records[n]}, oracle says {oracle.nullity(n)}"
    return None


def check_mcp_value(n: int, rc: int, out: str) -> str | None:
    want = PAPER_MCP.get(n)
    if want is None and oracle.nullity(n) == 0:
        want = n * n
    if want is None:
        raise ValueError(f"no independent MCP value for n={n}")
    return None if rc == 0 and out == f"{want}\n" else f"mcp {n}: got {out.strip()!r}, want {want}"


def check_certificate(k: int, rc: int, out: str, path: str) -> str | None:
    n = 6 * k - 1
    d = oracle.nullity(n)
    lines = out.splitlines()
    if rc != 0 or not lines or lines[0] != str(mcp_formula(k)):
        return f"certify k={k}: claimed {lines[:1]}, want {mcp_formula(k)}"
    fields = ("k", "n", "nullity", "claimed_min", "certified", "witness", "worst_config")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        head = [doc[f] for f in fields]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"certificate k={k} unreadable: {exc}"
    if head[:4] != [k, n, d, mcp_formula(k)]:
        return f"certificate k={k} header is wrong"
    if d != 2:
        if doc["certified"] or doc["witness"] is not None or f"upper bound only (nullity {d})" not in lines:
            return f"certificate k={k} claims an exact value on a nullity-{d} grid"
        return None
    if not doc["certified"]:
        return f"certificate k={k} not certified on a nullity-2 grid"
    try:
        _, witness = oracle.parse_pattern(doc["witness"])
        _, worst = oracle.parse_pattern(doc["worst_config"])
    except (ValueError, AttributeError) as exc:
        return f"certificate k={k} has a bad pattern: {exc}"
    g = oracle.grid(n)
    if g.lights(witness) != worst:
        return f"certificate k={k}: witness does not produce the configuration"
    # Every solution of ``worst`` is witness + kernel element; all must
    # weigh the claimed minimum for the minimum to be exact.
    for e in [0] + g.kernel + [g.kernel[0] ^ g.kernel[1]]:
        if (witness ^ e).bit_count() != mcp_formula(k):
            return f"certificate k={k}: a solution weighs {(witness ^ e).bit_count()}"
    return None


def check_read_back(k: int, rc: int, out: str) -> str | None:
    """The library's verify_certificate, run on the file it wrote, must accept it."""
    return None if rc == 0 and out == "verified\n" else f"certificate k={k}: read-back said {out.strip()!r}"


def check_regions(k: int, rc: int, out: str) -> str | None:
    n = 6 * k - 1
    if rc != 0:
        return f"regions k={k}: exit {rc}"
    want = [4 * k * k, 8 * k * k, 8 * k * k, 16 * k * k - 12 * k + 1]
    parts = out.split("region ")[1:]
    regions = []
    for i, part in enumerate(parts, start=1):
        head, _, body = part.partition("\n")
        try:
            side, bits = oracle.parse_pattern(body.rstrip("\n") + "\n")
        except ValueError as exc:
            return f"region {i}: {exc}"
        if side != n or head != f"{i}: {bits.bit_count()} cells":
            return f"region {i}: header {head!r} does not match its pattern"
        regions.append(bits)
    if [r.bit_count() for r in regions] != want:
        return f"region sizes {[r.bit_count() for r in regions]}, want {want}"
    r1, r2, r3, r4 = regions
    if (r1 | r2 | r3 | r4).bit_count() != n * n:
        return "regions do not partition the board"
    g = oracle.grid(n)
    if not all(g.is_even_cover(e) for e in (r2 | r3, r1 | r2, r1 | r3)):
        return "region unions are not even covers"
    return None


def check_tile(cover: int, base: int, k: int, rc: int, out: str) -> str | None:
    side = base * k - 1
    if rc != 0:
        return f"tile k={k}: exit {rc}"
    try:
        got_side, bits = oracle.parse_pattern(out)
    except ValueError as exc:
        return f"tile k={k}: {exc}"
    if got_side != side:
        return f"tile k={k}: side {got_side}, want {side}"
    m = base - 1
    corner = oracle.from_rows(m, [row & ((1 << m) - 1) for row in oracle.to_rows(side, bits)[:m]])
    if corner != cover:
        return f"tile k={k}: first tile is not the input cover"
    if bits.bit_count() != cover.bit_count() * k * k:
        return f"tile k={k}: weight {bits.bit_count()}, want {cover.bit_count() * k * k}"
    if not oracle.grid(side).is_even_cover(bits):
        return f"tile k={k}: not an even cover"
    return None
