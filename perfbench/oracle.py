"""Reference answers computed without the lightsout package.

Everything the benchmark checks is recomputed here by routes that share
no code with the library:

* the click map works row by row on n-bit integers;
* kernels, solvability and solutions come from light chasing: clicking a
  first-row vector c and chasing lights down leaves a residual M*c in the
  virtual row n, so the n-by-n matrix M carries the whole grid's algebra;
* the kernel dimension of large grids comes from the halving identities
  d(2m-1) = 2 d(m-1) + 2 [3 | m] and d(2m) = 2 deg gcd(h, h(x+1)) with
  h = f_m + f_{m+1}, and x -> x+1 is a superset-sum (Lucas) transform.

This module imports only the standard library.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = [
    "Grid",
    "grid",
    "halved",
    "nullity",
    "rank",
    "shift_by_one",
    "parse_pattern",
    "format_pattern",
    "to_rows",
    "from_rows",
]

CHASE_LIMIT = 200  # above this side, nullity() switches to the halving identities


def to_rows(n: int, bits: int) -> list[int]:
    mask = (1 << n) - 1
    return [(bits >> (r * n)) & mask for r in range(n)]


def from_rows(n: int, rows: list[int]) -> int:
    bits = 0
    for r, row in enumerate(rows):
        bits |= row << (r * n)
    return bits


class Grid:
    """The click map of the n-by-n grid, solved by light chasing."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("grid side must be >= 1")
        self.n = n
        self.mask = (1 << n) - 1
        # column j of M: the residual left by clicking first-row cell j alone
        cols = [self._residual(1 << j, [0] * n) for j in range(n)]
        # Reduce [M | I] so null vectors of M fall out with the pivots.
        pivots: dict[int, tuple[int, int]] = {}  # bit -> (M-image, combination)
        null = []
        for j, col in enumerate(cols):
            combo = 1 << j
            while col:
                top = col.bit_length() - 1
                if top not in pivots:
                    pivots[top] = (col, combo)
                    break
                col ^= pivots[top][0]
                combo ^= pivots[top][1]
            else:
                null.append(combo)
        self._pivots = pivots
        self.kernel = [from_rows(n, self._chase(c, [0] * n)) for c in null]

    @property
    def nullity(self) -> int:
        return len(self.kernel)

    def _spread(self, x: int) -> int:
        return x ^ ((x << 1) & self.mask) ^ (x >> 1)

    def _chase(self, first: int, board: list[int]) -> list[int]:
        """Click rows that clear rows 0..n-2 of ``board`` given the first row."""
        rows = [first]
        prev = 0
        for r in range(self.n - 1):
            nxt = board[r] ^ self._spread(rows[-1]) ^ prev
            prev = rows[-1]
            rows.append(nxt)
        return rows

    def _residual(self, first: int, board: list[int]) -> int:
        """Lights left in the last row after chasing: what row n would have to clear."""
        rows = self._chase(first, board)
        below = rows[-2] if self.n > 1 else 0
        return board[-1] ^ self._spread(rows[-1]) ^ below

    def lights(self, clicks: int) -> int:
        """Lights toggled by clicking every cell of ``clicks`` once."""
        x = to_rows(self.n, clicks)
        out = []
        for r in range(self.n):
            row = self._spread(x[r])
            if r:
                row ^= x[r - 1]
            if r + 1 < self.n:
                row ^= x[r + 1]
            out.append(row)
        return from_rows(self.n, out)

    def solve(self, board: int) -> int | None:
        """A click set whose lights are ``board``, or None when unsolvable."""
        rows = to_rows(self.n, board)
        res = self._residual(0, rows)
        first = 0
        while res:
            hit = self._pivots.get(res.bit_length() - 1)
            if hit is None:
                return None
            res ^= hit[0]
            first ^= hit[1]
        return from_rows(self.n, self._chase(first, rows))

    def is_even_cover(self, cells: int) -> bool:
        return self.lights(cells) == 0

    def min_clicks(self, board: int) -> int:
        """Fewest clicks over the whole solution coset of a solvable board."""
        x = self.solve(board)
        if x is None:
            raise ValueError("board is unsolvable")
        best = x.bit_count()
        cur = x
        for i in range(1, 1 << len(self.kernel)):
            cur ^= self.kernel[(i & -i).bit_length() - 1]
            best = min(best, cur.bit_count())
        return best


@lru_cache(maxsize=64)
def grid(n: int) -> Grid:
    return Grid(n)


def rank(vectors) -> int:
    """Rank over GF(2) of integers read as bit vectors."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


# -- kernel dimension of large grids -----------------------------------------

def _fib_pair(m: int) -> tuple[int, int]:
    """(f_m, f_{m+1}) with f_1 = 1, f_2 = x, f_k = x f_{k-1} + f_{k-2}."""
    a, b = 1, 2
    for _ in range(m - 1):
        a, b = b, (b << 1) ^ a
    return a, b


def _clear_masks(length: int):
    """For each k, the bit positions below ``length`` whose index has bit k clear."""
    k = 0
    while (1 << k) < length:
        step = 1 << k
        mask = (1 << step) - 1
        period = 2 * step
        while period < length:
            mask |= mask << period
            period *= 2
        yield step, mask
        k += 1


def shift_by_one(a: int) -> int:
    """a(x+1): coefficient j is the XOR of a_i over every i whose bits contain j's."""
    for step, mask in _clear_masks(a.bit_length()):
        a ^= (a >> step) & mask
    return a


def _gcd(a: int, b: int) -> int:
    while b:
        db = b.bit_length()
        while a.bit_length() >= db:
            a ^= b << (a.bit_length() - db)
        a, b = b, a
    return a


def halved(n: int, sub) -> int:
    """d(n) for n >= 2 from the halving identities; ``sub(m)`` gives d(m) for m < n."""
    if n % 2:
        m = (n + 1) // 2
        return 2 * sub(m - 1) + (2 if m % 3 == 0 else 0)
    fm, fm1 = _fib_pair(n // 2)
    h = fm ^ fm1
    return 2 * (_gcd(h, shift_by_one(h)).bit_length() - 1)


def nullity(n: int) -> int:
    """Kernel dimension of the n-by-n click map."""
    if n < 1:
        return 0
    if n <= CHASE_LIMIT:
        return grid(n).nullity
    return halved(n, nullity)


# -- text patterns -------------------------------------------------------------

def parse_pattern(text: str) -> tuple[int, int]:
    """(n, bits) of an n-line '#'/'.' pattern; raises ValueError if malformed."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    n = len(lines)
    if n == 0 or any(len(line) != n for line in lines):
        raise ValueError("pattern is not a non-empty square")
    bits = 0
    for r, line in enumerate(lines):
        if set(line) - {"#", "."}:
            raise ValueError(f"bad character in row {r}")
        for c, ch in enumerate(line):
            if ch == "#":
                bits |= 1 << (r * n + c)
    return n, bits


def format_pattern(n: int, bits: int) -> str:
    rows = []
    for row in to_rows(n, bits):
        rows.append("".join("#" if (row >> c) & 1 else "." for c in range(n)))
    return "\n".join(rows) + "\n"
