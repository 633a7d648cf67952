"""Census of kernel dimensions across grid sizes.

Sweeping n and recording the kernel dimension d(n) locates the rare sides
whose grids have exactly a four-element kernel (d = 2), the ones where the
worst-case click analysis applies. By the halving identities in
:mod:`lightsout.gf2poly`, d(n) is always even, and d(n) = 2 exactly when
n = 2m-1 with m = 3 (mod 6) and d(m-1) = 0, so every such side is 5 mod 12.
The census therefore offers a fast mode, exact for d = 2, that only
inspects n = 5 (mod 12) and computes each d(n) by those identities, one
GCD of degree about n/8 a side. The full mode takes one direct GCD of
degree about n/2 per side over a shared sweep of the Fibonacci
recurrence; it is the ground truth the fast mode is checked against.
Both take their GCDs over GF(2)[x^2 + x]. The congruence audit runs on
both as a regression check.

Blocks of sides are scanned optionally across worker processes. Results are
plain (n, nullity) records, written and read back as CSV, plus small report
objects for the congruence check and the d(2*3^k - 1) = 2 conjecture.
"""

from __future__ import annotations

import contextlib
import os
from typing import Callable, Iterable, NamedTuple, Sequence

from .gf2poly import nullity, nullity_range

__all__ = [
    "ScanRecord",
    "CongruenceReport",
    "ConjectureEntry",
    "ConjectureReport",
    "scan_range",
    "census",
    "check_conjecture_2_3k",
    "write_records_csv",
    "read_records_csv",
]

BLOCK_SIZE = 512
FAST_RESIDUE = (12, 5)


class ScanRecord(NamedTuple):
    """One scanned side: ``n`` and the kernel dimension of its grid."""

    n: int
    nullity: int


def _scan_block(task: tuple[int, int, bool]) -> list[tuple[int, int]]:
    lo, hi, fast = task
    if not fast:
        return nullity_range(lo, hi)
    modulus, value = FAST_RESIDUE
    first = lo + (value - lo) % modulus
    return [(n, nullity(n)) for n in range(first, hi + 1, modulus)]


def scan_range(
    n_min: int,
    n_max: int,
    fast: bool = False,
    workers: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> list[ScanRecord]:
    """Scan sides n_min..n_max in blocks of ``BLOCK_SIZE`` sides.

    ``fast`` computes only the sides n = 5 (mod 12) of ``FAST_RESIDUE``.
    ``progress`` is called with (sides done, sides total) after every
    block, in order of n. The returned list is sorted by n regardless of
    worker count.
    """
    if not 1 <= n_min <= n_max:
        raise ValueError("need 1 <= n_min <= n_max")
    if workers is None:
        workers = os.cpu_count() or 1
    tasks = [(lo, min(lo + BLOCK_SIZE - 1, n_max), fast)
             for lo in range(n_min, n_max + 1, BLOCK_SIZE)]
    workers = min(workers, len(tasks))  # a pool starts all its workers at once
    records: list[ScanRecord] = []
    with contextlib.ExitStack() as stack:
        mapper = map
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # ~20 ms, so only for a pool

            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        for (_, hi, _), pairs in zip(tasks, mapper(_scan_block, tasks)):
            records += [ScanRecord(n, d) for n, d in pairs]
            if progress is not None:
                progress(hi - n_min + 1, n_max - n_min + 1)
    return records


def census(
    n_max: int,
    fast: bool = False,
    workers: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> tuple[list[ScanRecord], "CongruenceReport"]:
    """Scan all sides up to ``n_max`` and check the congruence on the way out.

    Fast mode only inspects n = 5 (mod 12), where the halving identities
    place every four-element kernel; the full mode scans every side.
    ``progress`` is called with (sides done, sides total) after every
    block.
    """
    records = scan_range(1, n_max, fast=fast, workers=workers, progress=progress)
    return records, verify_congruences(records)


# -- reports -----------------------------------------------------------------

class CongruenceReport(NamedTuple):
    """Congruence audit of the d = 2 sides in a scan."""

    checked: int
    violations: tuple[ScanRecord, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary_lines(self) -> list[str]:
        lines = [f"nullity-2 sides checked: {self.checked}"]
        if self.ok:
            lines.append("congruences: all hold (n odd, n = 5 mod 6, n = 5 mod 12)")
        else:
            lines += [f"VIOLATION: n={v.n} (nullity {v.nullity}) is not 5 mod 12"
                      for v in self.violations]
        return lines


def verify_congruences(records: Iterable[ScanRecord]) -> CongruenceReport:
    """Check n = 5 (mod 12), so also n odd and n = 5 (mod 6), at every d = 2 record."""
    twos = [rec for rec in records if rec.nullity == 2]
    return CongruenceReport(checked=len(twos),
                            violations=tuple(r for r in twos if r.n % 12 != 5))


class ConjectureEntry(NamedTuple):
    k: int
    n: int
    nullity: int

    @property
    def holds(self) -> bool:
        return self.nullity == 2


class ConjectureReport(NamedTuple):
    """Evidence for d(2*3^k - 1) = 2 across a range of k."""

    entries: tuple[ConjectureEntry, ...]

    @property
    def all_hold(self) -> bool:
        return all(e.holds for e in self.entries)

    def summary_lines(self) -> list[str]:
        lines = []
        for e in self.entries:
            verdict = "holds" if e.holds else f"FAILS (nullity {e.nullity})"
            lines.append(f"k={e.k}: n={e.n} nullity={e.nullity} -> {verdict}")
        lines.append(
            "conjecture d(2*3^k - 1) = 2: "
            + ("holds for all checked k" if self.all_hold else "FAILS, see above")
        )
        return lines


def check_conjecture_2_3k(k_max: int) -> ConjectureReport:
    """Evaluate d(2*3^k - 1) for k = 1..k_max and report where it equals 2."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    entries = []
    for k in range(1, k_max + 1):
        n = 2 * 3**k - 1
        entries.append(ConjectureEntry(k=k, n=n, nullity=nullity(n)))
    return ConjectureReport(entries=tuple(entries))


# -- persistence ---------------------------------------------------------------

def write_records_csv(records: Sequence[ScanRecord], path: str) -> None:
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "nullity"])
        writer.writerows([rec.n, rec.nullity] for rec in records)


def read_records_csv(path: str) -> list[ScanRecord]:
    import csv

    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [ScanRecord(int(row[0]), int(row[1]))
                for row in csv.reader(fh) if row and row[0] != "n"]

