"""Even parity covers: verification, reflective tiling, and region partitions.

An even parity cover (quiet pattern) is a cell set meeting every closed
neighborhood in an even number of cells; that makes it exactly a kernel
element of the click map. Covers of an (n-1)x(n-1) grid tile to covers of
an (nk-1)x(nk-1) grid by laying k*k alternately-reflected copies separated
by empty strips, which is what makes the kernel dimension of grid sizes
one below a multiple of n monotone in k.

On a grid with kernel dimension exactly 2 the three nonzero covers cut the
board into four disjoint membership regions (every cell lies in either none
or exactly two of the covers). They are built here, from the two basis
vectors, and the mcp module's worst-case construction reads them.
"""

from __future__ import annotations

from .gf2poly import nullity
from .gridmap import CellSet, _spaced_bits, apply_clicks, kernel_basis

__all__ = [
    "is_even_cover",
    "tile_cover",
    "region_partition",
]


def is_even_cover(s: CellSet) -> bool:
    """Whether every cell's closed neighborhood meets ``s`` evenly."""
    return not apply_clicks(s)


def _copies(k: int, stride: int, parity: int) -> int:
    """Bit j*stride set for every copy j < k with j % 2 == parity."""
    return _spaced_bits(2 * stride, (k - parity + 1) // 2) << (parity * stride)


def tile_cover(q: CellSet, n: int, k: int) -> CellSet:
    """Tile an (n-1)x(n-1) even parity cover k times to an (nk-1)x(nk-1) one.

    Copies alternate horizontal/vertical reflections so the empty
    separator strips stay quiet; the output is again an even parity cover.
    """
    if k < 1:
        raise ValueError("tile count k must be >= 1")
    if n < 2:
        raise ValueError("base size n must be >= 2")
    if q.n != n - 1:
        raise ValueError(f"cover is {q.n}x{q.n}, expected {n - 1}x{n - 1}")
    if not is_even_cover(q):
        raise ValueError("input is not an even parity cover")
    side = n * k - 1
    m = n - 1
    even, odd = _copies(k, n, 0), _copies(k, n, 1)
    # Source row r becomes one row of a band of tiles: r in the even copies,
    # r reversed in the odd ones. The band rows stacked in order (down) fill
    # the even bands, stacked in reverse (up) the odd ones. Every copy is
    # n-1 cells wide (or rows tall) and copies start n apart, so no product
    # below carries: each lays down disjoint copies.
    down = up = 0
    for i in range(m):
        r = (q.bits >> (i * m)) & ((1 << m) - 1)
        row = r * even + int(format(r, f"0{m}b")[::-1], 2) * odd
        down |= row << (i * side)
        up |= row << ((m - 1 - i) * side)
    return CellSet(side, down * _copies(k, n * side, 0) + up * _copies(k, n * side, 1))


def region_partition(k: int) -> tuple[CellSet, CellSet, CellSet, CellSet]:
    """The four membership regions (R1, R2, R3, R4) of the (6k-1)x(6k-1) grid.

    Defined only when the grid's kernel dimension is exactly 2. With basis
    vectors a and b the covers are a, b and a ^ b; R1, R2, R3 are their
    pairwise intersections a & ~b, a & b and b & ~a, sorted by (size, first
    cell in row-major order), and R4 is the cells no cover touches. Their
    sizes are 4k^2, 8k^2, 8k^2 and 16k^2 - 12k + 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = 6 * k - 1
    d = nullity(n)
    if d != 2:
        raise ValueError(
            f"{n}x{n} grid has nullity {d}, not 2; "
            "the four-region partition is undefined"
        )
    a, b = (e.bits for e in kernel_basis(n))
    pairs = sorted((a & ~b, a & b, b & ~a), key=lambda r: (r.bit_count(), r & -r))
    if [r.bit_count() for r in pairs] != [4 * k * k, 8 * k * k, 8 * k * k]:
        raise ValueError("cover intersections do not match the 4k^2 and 8k^2 region sizes")
    r4 = ((1 << n * n) - 1) & ~(a | b)
    return tuple(CellSet(n, r) for r in (*pairs, r4))  # type: ignore[return-value]
