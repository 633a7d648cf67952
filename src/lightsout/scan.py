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
free, with no process pool. A side costs about n^2 in either mode, so the
blocks are laid out by guided self-scheduling: each takes a fixed share
of the cost still left, the first ones long and the last ones short, and
the workers finish together. ``scan_range`` is one direct sweep over any
range. Results are plain (n, nullity) records, written and read back as
CSV, plus small report objects for the congruence check and the
d(2*3^k - 1) = 2 conjecture.
"""

from __future__ import annotations

import os
from itertools import repeat, starmap
from typing import Callable, Iterable, NamedTuple, Sequence

from .gf2poly import _fast_block, _sweep_block, _y_sweep, nullity, nullity_range

__all__ = [
    "scan_range",
    "census",
    "check_conjecture_2_3k",
    "write_records_csv",
    "read_records_csv",
]

MIN_BLOCK = 96


def _block_ends(n_max: int, workers: int) -> list[int]:
    """The last side of each census block, by guided self-scheduling.

    Side n is modelled as costing n^2 (one GCD of degree about n), so sides
    lo..hi cost hi^3 - (lo - 1)^3. Each block takes a 1/(2*workers) share of
    the cost still left, ending at the cube root, but at least ``MIN_BLOCK``
    sides: early blocks are long and late ones short, so the workers finish
    together (Polychronopoulos & Kuck, IEEE Trans. Computers, 1987).
    """
    ends: list[int] = []
    done = 0
    while done < n_max:
        target = done**3 + -(-(n_max**3 - done**3) // (2 * workers))  # rounded up
        hi = int(target ** (1 / 3))  # the float root may fall just short
        while hi**3 < target:
            hi += 1
        done = min(max(hi, done + MIN_BLOCK), n_max)
        ends.append(done)
    return ends


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
    """Scan sides 1..n_max in guided blocks (``_block_ends``) and audit the congruence.

    ``fast`` computes only the sides n = 5 (mod 12), where the halving
    identities place every four-element kernel; the full mode scans every
    side. Blocks run on up to ``workers`` forked processes (default: one
    per CPU this process may run on), never more than there are blocks,
    each taking the next block when free; without ``os.fork`` they run
    in this process. ``progress`` is called with (sides done, sides
    total) after every block, in order of n; the first block holds a
    1/(2*workers) share of the cost, so the first call comes late. The
    blocks depend on the worker count; the records, sorted by n, do not.
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
    ends = _block_ends(n_max, workers)
    starts = [1, *(hi + 1 for hi in ends[:-1])]
    # a full block resumes one recurrence sweep at its (f_lo, f_{lo+1})
    begins = set(starts)
    states = (state for k, state in enumerate(_y_sweep(), 1) if k in begins)
    fn, tasks = ((_fast_block, zip(starts, ends)) if fast else
                 (_sweep_block, zip(starts, ends, repeat(None), states)))
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
    return records, _verify_congruences(records)


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


def _verify_congruences(records: Iterable[ScanRecord]) -> CongruenceReport:
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

