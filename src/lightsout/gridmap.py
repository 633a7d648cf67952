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

The fewest clicks solving a board is the lightest member of a coset
s + K, with s the canonical solution and K the kernel, of basis
e_0..e_{d-1}. A cell's type t is the set of basis vectors holding it (bit
j for e_j). Let n_t count the cells of type t, a_t those of them in s,
and b_t = n_t - 2a_t. Member c = s + sum of c_j e_j holds a cell of type
t iff s does, flipped when <c, t> is odd, so it weighs

    |s| + sum over t of b_t [<c, t> odd] = |s| + (B - b^(c)) / 2,

with B the sum of the b_t and b^(c) = sum of b_t (-1)^<c, t> the
Walsh-Hadamard transform of b (MacWilliams & Sloane, "The Theory of
Error-Correcting Codes", 1977, ch. 5). One count of the cell types, by
d splits of the board into classes, and one transform of length 2^d weigh
every member, where a walk over the coset does 2^d XORs and popcounts of
n^2-bit integers. Over the basis reversed, index order is lex order.
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from typing import Iterable

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
        """The 2^d - 1 nonzero kernel elements, in ``_span`` order; refused above ``NULLITY_CAP``."""
        _check_nullity(len(self))
        return [CellSet(self[0].n, v) for v in _span(self)[1:]]


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


def _span(vectors: Iterable[CellSet]) -> list[int]:
    """Entry c is the XOR of the vectors at the set bits of c, built by doubling; callers cap d."""
    span = [0]
    for e in vectors:
        span += [x ^ e.bits for x in span]
    return span


def _solution_and_basis(config: CellSet) -> tuple[int, KernelBasis]:
    """The canonical solution of ``config`` and the kernel basis.

    Solves first, then refuses d > ``NULLITY_CAP`` before chasing the kernel.
    """
    cur = solve_particular(config).bits
    _check_nullity(len(_residual_matrix(config.n)[1]))
    return cur, kernel_basis(config.n)


def all_solutions(config: CellSet) -> list[CellSet]:
    """Every solution of ``config``: the coset of one solution by the kernel.

    Exactly 2^d solutions for kernel dimension d; refuses to enumerate
    when d exceeds ``NULLITY_CAP``.
    """
    cur, basis = _solution_and_basis(config)
    return [CellSet(config.n, cur ^ x) for x in _span(basis)]


def min_clicks(config: CellSet) -> tuple[int, CellSet]:
    """Fewest clicks solving ``config``, with a witness click set.

    Searches the whole solution coset (refused above ``NULLITY_CAP``) at
    every nullity by ``_coset_minimum``'s transform, which builds one
    member: among equal-weight minima, the lexicographically smallest
    bitset in row-major order.
    """
    cur, basis = _solution_and_basis(config)
    best_w, best = _coset_minimum(config.n, basis, cur)
    return best_w, CellSet(config.n, best)


# -- coset weights by a Walsh-Hadamard transform --------------------------------

def _lane_max(guard: int, width: int, x: int, y: int) -> int:
    """Lane-wise max of two packings of ``width``-bit lanes below the guard bit.

    The guard bit survives x | guard - y in exactly the lanes where x >= y.
    """
    ge = ((x | guard) - y) & guard
    return y ^ ((x ^ y) & (ge - (ge >> (width - 1))))


def _cell_types(n: int, basis: Iterable[CellSet]) -> list[tuple[int, int]]:
    """The nonempty cell types (t, cells) of ``basis`` on the n-by-n board, type 0 kept.

    The whole board is one class, and each basis vector e_j splits every
    class into its cells in e_j (type bit j set) and the rest, so after d
    splits the nonempty classes are the types present.
    """
    classes = [(0, (1 << (n * n)) - 1)]  # (type over the vectors split by so far, its cells)
    for j, e in enumerate(basis):
        split = []
        for t, cells in classes:
            if inside := cells & e.bits:
                split.append((t | 1 << j, inside))
            if inside != cells:
                split.append((t, cells ^ inside))
        classes = split
    return classes


def _coset_minimum(n: int, basis: KernelBasis, s: int) -> tuple[int, int]:
    """Fewest cells in a member of s + span(``basis``), and the lex-smallest such member.

    Member c weighs |s| + (B - b^(c)) / 2 (module docstring), so the
    lightest members are the c of the heaviest b^(c), with b_t =
    |cells| - 2 |cells & s| over the cell types of the basis reversed:
    index c, written as d binary digits, is the string (c_0, ..., c_(d-1)).
    Two members first differ at the leading cell of e_j for the first j
    where their strings differ, since no other e_i holds that cell and
    every e_i with i > j lies above it; s is clear there, so the one with
    c_j = 0 sorts first, and lex order is index order. That needs the
    basis reduced and sorted and s canonical, as
    ``test_kernel_basis_is_reduced_and_sorted``,
    ``test_solve_particular_is_canonical`` and
    ``test_solve_particular_at_599_is_canonical`` pin.

    The transform is blocked: index c splits into its low half c_lo
    (``low`` bits) and its high half c_hi. The 2^low values of c_lo are
    lanes of one integer, each wide enough for b^(c) plus a bias that
    keeps it nonnegative, and one integer, a block, stands for each c_hi.
    Level 1 sets block t_hi to the transform over c_lo of the types with
    high half t_hi: the sum of b_t (1 - 2 [<c_lo, t_lo> odd]), by parity
    patterns built by doubling. Level 2 is the butterfly (u + v, u - v)
    over the block list, whose lanes then read b^(c) + bias: the bias was
    put in block 0, and the transform of block 0 alone is every block. A
    guard-bit lane max over the blocks and then within the last gives the
    heaviest b^(c); a guard-bit threshold at it marks the tied lanes. The
    lowest tied lane of the first block with one is the least tied index,
    and only its member is built. Nothing walks the 2^d members, and
    d = 0 is a one-lane transform whose one member is s.
    """
    # type 0, the cells in no basis vector, weighs the same in every member
    b = {t: cells.bit_count() - 2 * (cells & s).bit_count() for t, cells in _cell_types(n, basis[::-1]) if t}
    d = len(basis)
    bias = sum(map(abs, b.values()))  # |b^(c)| <= bias
    width = (2 * bias).bit_length() + 1  # a lane holds b^(c) + bias below its guard bit
    low = d // 2
    lanes = 1 << low
    ones = _spaced_bits(width, lanes)
    parity = [0]  # lane c_lo of parity[t_lo] is 1 iff <c_lo, t_lo> is odd
    for k in range(low):  # flip the lanes with bit k set: the upper 2^k of every 2^(k+1)
        run = _spaced_bits(width, 1 << k) << (width << k)
        flip = _spaced_bits(width << (k + 1), lanes >> (k + 1)) * run
        parity += [p ^ flip for p in parity]
    sums, odd = [0] * (1 << (d - low)), [0] * (1 << (d - low))
    for t, bt in b.items():
        sums[t >> low] += bt
        odd[t >> low] += bt * parity[t & (lanes - 1)]
    blocks = [total * ones - 2 * o for total, o in zip(sums, odd)]
    blocks[0] += bias * ones
    h = 1
    while h < len(blocks):
        for i in range(len(blocks)):
            if not i & h:
                u, v = blocks[i], blocks[i | h]
                blocks[i], blocks[i | h] = u + v, u - v
        h *= 2
    guard = ones << (width - 1)
    top = reduce(partial(_lane_max, guard, width), blocks)
    for k in reversed(range(low)):  # halve the lanes, down to one
        keep = (1 << (width << k)) - 1
        top = _lane_max(guard & keep, width, top >> (width << k), top & keep)
    weight = s.bit_count() + (sum(b.values()) - (top - bias)) // 2
    threshold = ((1 << (width - 1)) - top) * ones  # sets the guard bit of lanes >= top
    c_hi, tied = next((c_hi, tied) for c_hi, block in enumerate(blocks)
                      if (tied := (block + threshold) & guard))
    c = c_hi << low | ((tied & -tied).bit_length() // width - 1)
    for digit, e in zip(f"{c:0{d}b}", basis):  # c_0 first
        if digit == "1":
            s ^= e.bits
    return weight, s


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
