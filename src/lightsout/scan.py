"""Census of kernel dimensions across grid sizes.

Sweeping n and recording the kernel dimension d(n) locates the rare sides
whose grids have exactly a four-element kernel (d = 2), the ones where the
worst-case click analysis applies. By the halving identities in
:mod:`lightsout.gf2poly`, d(n) is always even, and d(n) = 2 exactly when
n = 2m-1 with m = 3 (mod 6) and d(m-1) = 0, so every such side is 5 mod 12.
The census therefore offers a fast mode, exact for d = 2, that only
inspects n = 5 (mod 12), each d(n) one GCD of degree about n/8 by those
identities; a block doubles once to its first side's Fibonacci pair and
reaches each next side by three recurrence steps. The full mode takes
one direct GCD of degree about n/2 per side; the parent sweeps the
recurrence once to n_max and each block resumes it at its first side.
It is the ground truth the fast mode is checked against. Both take
their GCDs over GF(2)[x^2 + x]; the congruence audit checks both.

``census`` scans 1..n_max in blocks of sides, optionally across worker
processes forked from the caller that each take the next block when
free, with no process pool; ``scan_range`` is one direct sweep over any
range. Results are plain (n, nullity) records, written and read back as
CSV, plus small report objects for the congruence check and the
d(2*3^k - 1) = 2 conjecture.
"""

from __future__ import annotations

import os
from itertools import islice, repeat, starmap
from typing import Callable, Iterable, NamedTuple, Sequence

from .gf2poly import _fast_block, _sweep_block, _y_sweep, nullity, nullity_range

__all__ = [
    "scan_range",
    "census",
    "check_conjecture_2_3k",
    "write_records_csv",
    "read_records_csv",
]

BLOCK_SIZE = 512


class ScanRecord(NamedTuple):
    """One scanned side: ``n`` and the kernel dimension of its grid."""

    n: int
    nullity: int


def scan_range(n_min: int, n_max: int) -> list[ScanRecord]:
    """d(n) for every side n_min..n_max, sorted by n, by one direct-GCD sweep.

    Raises ``ValueError`` unless 1 <= n_min <= n_max.
    """
    return [ScanRecord(n, d) for n, d in nullity_range(n_min, n_max)]


def census(
    n_max: int,
    fast: bool = False,
    workers: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> tuple[list[ScanRecord], "CongruenceReport"]:
    """Scan sides 1..n_max in blocks of ``BLOCK_SIZE`` and audit the congruence.

    ``fast`` computes only the sides n = 5 (mod 12), where the halving
    identities place every four-element kernel; the full mode scans every
    side. Blocks run on up to ``workers`` forked processes (default: one
    per CPU this process may run on), never more than there are blocks,
    each taking the next block when free; without ``os.fork`` they run
    in this process. ``progress`` is called with (sides done, sides
    total) after every block, in order of n. The records are sorted by n
    regardless of worker count.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    if workers is None:
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    if workers < 1:
        raise ValueError("need workers >= 1")
    if not hasattr(os, "fork"):
        workers = 1
    starts = range(1, n_max + 1, BLOCK_SIZE)
    ends = [min(lo + BLOCK_SIZE - 1, n_max) for lo in starts]
    # a full block resumes one recurrence sweep to n_max at its (f_lo, f_{lo+1})
    fn, tasks = ((_fast_block, zip(starts, ends)) if fast else
                 (_sweep_block, zip(starts, ends, repeat(None),
                                    islice(_y_sweep(), 0, n_max, BLOCK_SIZE))))
    workers = min(workers, len(starts))  # every worker is forked up front
    if workers == 1:
        blocks = starmap(fn, tasks)
    else:
        from ._forkmap import forked_map  # loaded only by a census that forks

        blocks = forked_map(fn, tasks, workers)
    records: list[ScanRecord] = []
    try:
        for hi, pairs in zip(ends, blocks):
            records += [ScanRecord(n, d) for n, d in pairs]
            if progress is not None:
                progress(hi, n_max)
    finally:
        if workers > 1:
            blocks.close()  # its children are reaped before census returns or raises
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

