"""Click map, kernel bases, and GF(2) solvers for n-by-n Lights Out grids.

Cell sets (light configurations and click sets alike) are integer bitsets
in row-major order: cell (r, c) is bit r*n + c. Symmetric difference is
XOR, so the click map is five shifted copies of one integer, two of them
masked so they do not wrap between rows.

Kernels and solutions come from light chasing (Anderson & Feil, "Turning
Lights Out with Linear Algebra", Math. Mag. 71(4), 1998). Once the clicks
in row 0 are fixed, every later row must be clicked exactly under the
lights still on above it, so the whole click set follows row by row. The
lights left for a virtual row n are M*c plus a residual of the board,
where c is the first row and M = f_{n+1}(T) is the Fibonacci polynomial
of the gf2poly module evaluated at the row's own click map T. A board is
therefore solvable iff M*c equals its residual for some c, and the chases
of M's null vectors are the kernel: the n^2 x n^2 click matrix is never
formed, only the n x n matrix M, reduced once per grid size and cached.

M's columns are reduced last to first, so pivot first rows touch only
pivot columns and a null first row is e_j plus pivot columns above j. One
elimination thus gives the kernel's reduced row-echelon first rows, and
solutions clear on every kernel leading cell.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, islice
from operator import xor
from typing import Iterable, Iterator

__all__ = [
    "CellSet",
    "UnsolvableError",
    "apply_clicks",
    "kernel_basis",
    "is_solvable",
    "solve_particular",
    "all_solutions",
    "min_clicks",
    "parse_pattern",
    "format_pattern",
    "format_pbm",
]

NULLITY_CAP = 20  # nothing here enumerates more than 2^20 solutions or covers


class UnsolvableError(ValueError):
    """Raised when a light configuration is not in the image of the click map."""


def _check_nullity(d: int) -> None:
    """Refuse d > ``NULLITY_CAP`` before anything with 2^d entries is built."""
    if d > NULLITY_CAP:
        raise ValueError(f"nullity {d} exceeds the enumeration cap {NULLITY_CAP}")


class CellSet:
    """Immutable set of cells on an n-by-n grid, stored as a row-major bitset.

    Assignment is refused after ``__init__``: the cached kernel's vectors
    are shared by every caller. Copies and pickles are rebuilt through
    ``__init__``.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int) -> None:
        if n < 1:
            raise ValueError("grid side length must be >= 1")
        if bits < 0 or bits >> (n * n):
            raise ValueError(f"bits outside the {n}x{n} grid")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __reduce__(self):
        return type(self), (self.n, self.bits)

    @classmethod
    def empty(cls, n: int) -> CellSet:
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> CellSet:
        return cls(n, (1 << (n * n)) - 1)

    def __xor__(self, other: CellSet) -> CellSet:
        if self.n != other.n:
            raise ValueError(f"grid size mismatch: {self.n} vs {other.n}")
        return CellSet(self.n, self.bits ^ other.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CellSet):
            return NotImplemented
        return self.n == other.n and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"CellSet(n={self.n}, weight={len(self)})"

    def __str__(self) -> str:
        return format_pattern(self)


class KernelBasis(tuple):
    """Canonical basis of the click map's kernel for an n-by-n grid.

    A tuple of ``CellSet``s in reduced row-echelon form over the row-major
    cell order (each has a leading cell no other basis vector touches),
    sorted by leading cell, so output is reproducible run to run. Being a
    tuple of immutable vectors, the cached basis of a size is safe to
    share with every caller.
    """

    __slots__ = ()

    def span_nonzero(self) -> list[CellSet]:
        """The 2^d - 1 nonzero kernel elements, Gray-code order; refused above ``NULLITY_CAP``."""
        _check_nullity(len(self))
        return [CellSet(self[0].n, v) for v in islice(_span(self, 0), 1, None)]


# -- click map ---------------------------------------------------------------

_CACHE_SIZE = 64  # grid sizes kept per cache; every entry is rebuilt on demand


def _spaced_bits(step: int, count: int) -> int:
    """Bits 0, step, ..., (count-1)*step set, built by doubling the run.

    Not all-ones // (2^step - 1): CPython's long division is quadratic in
    the bit length (at step = count = 20001, 18 s against 0.5 s here).
    """
    bits, have = 1, 1
    while have < count:
        bits |= bits << (have * step)
        have *= 2
    return bits & ((1 << (count * step)) - 1)


@lru_cache(maxsize=_CACHE_SIZE)
def _masks(n: int) -> tuple[int, int, int]:
    """(whole grid, all but column 0, all but column n-1) as bitmasks."""
    full = (1 << (n * n)) - 1
    first_col = _spaced_bits(n, n)  # bit r*n for every row r
    return full, full ^ first_col, full ^ (first_col << (n - 1))


def apply_clicks(clicks: CellSet) -> CellSet:
    """Lights toggled by clicking every cell in ``clicks`` once.

    Each click toggles its cell and the cells left, right, above and
    below it: five shifted copies of the click set, with the horizontal
    ones masked so they do not wrap between rows.
    """
    n, x = clicks.n, clicks.bits
    full, not_first, not_last = _masks(n)
    lights = x ^ ((x << 1) & not_first) ^ ((x >> 1) & not_last)
    return CellSet(n, lights ^ ((x << n) & full) ^ (x >> n))


# -- light chasing -------------------------------------------------------------

def _chase(n: int, board: int, top: int) -> tuple[int, int]:
    """Click row 0 as ``top``, then click under every light left in ``board``.

    Row r+1 is clicked exactly where row r is still lit after rows r-1
    and r, which leaves rows 0..n-1 dark. Returns the click set and the
    residual: the lights row n would have to clear, 0 iff the clicks
    solve ``board``.
    """
    row = (1 << n) - 1
    prev, cur = 0, top
    clicks = 0
    for r in range(n):
        clicks |= cur << (r * n)
        lit = (board >> (r * n)) & row
        prev, cur = cur, lit ^ cur ^ ((cur << 1) & row) ^ (cur >> 1) ^ prev
    return clicks, cur


def _reduce(pivots: dict[int, int], v: int) -> int:
    """Clear v's leading bits with ``pivots`` while they reach."""
    while v:
        hit = pivots.get(v.bit_length() - 1)
        if hit is None:
            break
        v ^= hit
    return v


@lru_cache(maxsize=_CACHE_SIZE)
def _residual_matrix(n: int) -> tuple[dict[int, int], tuple[int, ...]]:
    """The residual matrix M of the n-by-n grid, reduced.

    Column j of M is the residual of clicking cell (0, j) alone and
    chasing, so M = f_{n+1}(T) for the row's click map T. Returns the
    pivots {leading bit: (M*t << n) | t} for first rows t, one integer a
    row so that a step of elimination is one XOR, and a basis of the
    first rows t with M*t = 0: the rows whose high half reduces to 0.
    Column j = n-1 down to 0 is reduced by the pivots above it, so a
    pivot's t touches only pivot columns and a null t is bit j plus pivot
    columns above j: the null t come out in reduced row-echelon form by
    lowest bit, sorted.
    """
    # Chase all n unit first rows at once: block j of an n*n-bit integer
    # (the cells of "row" j) holds the chase from cell (0, j), so a step
    # of the row recurrence is the horizontal part of the click map plus
    # the blocks two steps back.
    _, not_first, not_last = _masks(n)
    prev, cur = 0, _spaced_bits(n + 1, n)  # the identity: bit j of block j
    for _ in range(n):
        prev, cur = cur, cur ^ ((cur << 1) & not_first) ^ ((cur >> 1) & not_last) ^ prev
    pivots: dict[int, int] = {}
    null = []
    for j in reversed(range(n)):
        row = _reduce(pivots, ((cur >> (j * n)) & ((1 << n) - 1)) << n | 1 << j)
        if row >> n:
            pivots[row.bit_length() - 1] = row
        else:
            null.append(row)
    return pivots, tuple(reversed(null))


@lru_cache(maxsize=_CACHE_SIZE)
def kernel_basis(n: int) -> KernelBasis:
    """Canonical basis of the even parity covers of the n-by-n grid.

    The chases of M's null first rows span the kernel. A nonzero chase
    has its first row as row 0, so its lowest cell lies there, and
    chasing is linear: the reduced null first rows chase to the
    kernel's unique reduced row-echelon basis, sorted by leading cell.
    """
    if n < 1:
        raise ValueError("grid side length must be >= 1")
    return KernelBasis(CellSet(n, _chase(n, 0, t)[0]) for t in _residual_matrix(n)[1])


# -- solvers -----------------------------------------------------------------

def _first_row(config: CellSet) -> tuple[int, int]:
    """(left, t): M*t + left is the board's residual, left = 0 iff it is solvable."""
    n = config.n
    v = _reduce(_residual_matrix(n)[0], _chase(n, config.bits, 0)[1] << n)
    return v >> n, v & ((1 << n) - 1)


def is_solvable(config: CellSet) -> bool:
    """Whether the configuration is in the image of the click map."""
    return not _first_row(config)[0]


def solve_particular(config: CellSet) -> CellSet:
    """One click set solving ``config``, canonical and deterministic.

    Chasing the board with an empty first row leaves a residual r; the
    first row t with M*t = r, reduced from pivot rows alone, chases to the
    unique solution that vanishes on the kernel's leading cells.
    """
    left, top = _first_row(config)
    if left:
        raise UnsolvableError("configuration is not solvable")
    return CellSet(config.n, _chase(config.n, config.bits, top)[0])


def _span(basis: Iterable[CellSet], start: int) -> Iterator[int]:
    """``start ^ e`` for every e in the span of ``basis``, by Gray code; callers cap d."""
    flips: list[int] = []  # step i of a Gray code flips basis vector (trailing zeros of i)
    for e in basis:
        flips += [e.bits] + flips
    return accumulate(flips, xor, initial=start)


def _coset(config: CellSet) -> Iterator[int]:
    """Every solution of ``config`` by Gray code from the canonical one.

    Solves first, then refuses d > ``NULLITY_CAP`` before chasing the kernel.
    """
    cur = solve_particular(config).bits
    _check_nullity(len(_residual_matrix(config.n)[1]))
    return _span(kernel_basis(config.n), cur)


def all_solutions(config: CellSet) -> list[CellSet]:
    """Every solution of ``config``: the coset of one solution by the kernel.

    Exactly 2^d solutions for kernel dimension d; refuses to enumerate
    when d exceeds ``NULLITY_CAP``.
    """
    return [CellSet(config.n, bits) for bits in _coset(config)]


def lex_less(a: int, b: int) -> bool:
    """Whether bitset a sorts before b in row-major lexicographic order.

    At the first cell (lowest bit) where the two differ, the set without
    it sorts first, as '.' sorts before '#' in the pattern format.
    """
    d = a ^ b
    return d != 0 and not a & d & -d


def min_clicks(config: CellSet) -> tuple[int, CellSet]:
    """Fewest clicks solving ``config``, with a witness click set.

    Scans the whole solution coset (refused above ``NULLITY_CAP``); among
    equal-weight minima the witness is the lexicographically smallest
    bitset in row-major order.
    """
    coset = _coset(config)
    best = next(coset)
    best_w = best.bit_count()
    for cur in coset:
        w = cur.bit_count()
        if w < best_w or (w == best_w and lex_less(cur, best)):
            best, best_w = cur, w
    return best_w, CellSet(config.n, best)


# -- pattern text format -----------------------------------------------------

# A row is read and written as a string of '0'/'1' digits, column 0 first.
_TO_CELLS = str.maketrans("01", ".#")
_TO_DIGITS = str.maketrans(".#", "01")
_NOT_CELLS = str.maketrans("", "", ".#")


def _digit_rows(cs: CellSet) -> list[str]:
    n = cs.n
    digits = format(cs.bits, f"0{n * n}b")[::-1]
    return [digits[i:i + n] for i in range(0, n * n, n)]


def parse_pattern(text: str) -> CellSet:
    """Parse the shared pattern format: n lines of n '#'/'.' characters."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError("empty pattern")
    n = len(lines)
    for r, line in enumerate(lines):
        if len(line) != n:
            raise ValueError(
                f"pattern is not square: line {r + 1} has {len(line)} of {n} columns"
            )
        bad = line.translate(_NOT_CELLS)
        if bad:
            raise ValueError(f"bad pattern character {bad[0]!r} at line {r + 1}")
    return CellSet(n, int("".join(lines)[::-1].translate(_TO_DIGITS), 2))


def format_pattern(cs: CellSet) -> str:
    """Render a cell set in the shared pattern format, newline-terminated."""
    return "\n".join(_digit_rows(cs)).translate(_TO_CELLS) + "\n"


def format_pbm(cs: CellSet) -> str:
    """Render a cell set as an ASCII PBM (P1) image, set cells black."""
    rows = "\n".join(" ".join(row) for row in _digit_rows(cs))
    return f"P1\n{cs.n} {cs.n}\n{rows}\n"
