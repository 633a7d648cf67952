"""Even parity covers: verification, reflective tiling, and region partitions.

An even parity cover (quiet pattern) is a cell set meeting every closed
neighborhood in an even number of cells; that makes it exactly a kernel
element of the click map. Covers of an (n-1)x(n-1) grid tile to covers of
an (nk-1)x(nk-1) grid by laying k*k alternately-reflected copies separated
by empty strips, which is what makes the kernel dimension of grid sizes
one below a multiple of n monotone in k.

On a grid with kernel dimension exactly 2 the three nonzero covers cut the
board into four disjoint membership regions (every cell lies in either none
or exactly two of the covers); those regions drive the worst-case click
count analysis in the mcp module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gridmap import CellSet, apply_clicks, kernel_basis

__all__ = [
    "RegionPartition",
    "is_even_cover",
    "tile_cover",
    "region_partition",
]


def is_even_cover(s: CellSet) -> bool:
    """Whether every cell's closed neighborhood meets ``s`` evenly."""
    return not apply_clicks(s)


def _source_index(i: int, n: int) -> int | None:
    """Map a tiled coordinate back into the (n-1)-wide source tile.

    Coordinates are split into tiles of width n: the last line of each
    tile is the empty separator (None); odd-numbered tiles are reflected.
    """
    tile, off = divmod(i, n)
    if off == n - 1:
        return None
    return off if tile % 2 == 0 else n - 2 - off


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
    src = q.bits
    m = n - 1
    out = 0
    for r in range(side):
        sr = _source_index(r, n)
        if sr is None:
            continue
        row = src >> (sr * m)
        for c in range(side):
            sc = _source_index(c, n)
            if sc is not None and (row >> sc) & 1:
                out |= 1 << (r * side + c)
    return CellSet(side, out)


@dataclass(frozen=True)
class RegionPartition:
    """The four membership regions of a nullity-2 grid of side 6k-1.

    ``covers`` holds the three nonzero kernel elements E1, E2, E3 (with
    E3 = E1 xor E2), labeled so that region sizes come out as
    (4k^2, 8k^2, 8k^2, 16k^2 - 12k + 1):
    R1 = E2 & E3, R2 = E1 & E2, R3 = E1 & E3, R4 = the rest.
    """

    k: int
    n: int
    regions: tuple[CellSet, CellSet, CellSet, CellSet]
    covers: tuple[CellSet, CellSet, CellSet]

    @property
    def sizes(self) -> tuple[int, int, int, int]:
        return tuple(len(r) for r in self.regions)  # type: ignore[return-value]


def region_partition(k: int) -> RegionPartition:
    """Partition the (6k-1)x(6k-1) grid by kernel cover membership.

    Defined only when the grid's kernel dimension is exactly 2 (three
    nonzero covers, four membership classes).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = 6 * k - 1
    kb = kernel_basis(n)
    if len(kb) != 2:
        raise ValueError(
            f"{n}x{n} grid has nullity {len(kb)}, not 2; "
            "the four-region partition is undefined"
        )
    b1, b2 = (e.bits for e in kb.basis)
    elems = [b1, b2, b1 ^ b2]
    full = (1 << (n * n)) - 1

    # Classes are the pairwise intersections (a cell in two covers is
    # automatically outside the third since E3 = E1 ^ E2).
    want_r1 = 4 * k * k
    want_r23 = 8 * k * k
    pairs = [(0, 1), (0, 2), (1, 2)]
    small = [p for p in pairs if (elems[p[0]] & elems[p[1]]).bit_count() == want_r1]
    if len(small) != 1:
        raise ValueError("cover intersections do not match the 4k^2 region size")
    i, j = small[0]
    e1 = elems[3 - i - j]  # the element outside the small intersection
    r1 = elems[i] & elems[j]
    cand_a, cand_b = elems[i], elems[j]
    ra, rb = e1 & cand_a, e1 & cand_b
    if ra.bit_count() != want_r23 or rb.bit_count() != want_r23:
        raise ValueError("cover intersections do not match the 8k^2 region sizes")
    # Of the two 8k^2 classes, R2 is the one with the first cell in
    # row-major order; that fixes which element is called E2.
    if (ra & -ra) > (rb & -rb):
        cand_a, cand_b = cand_b, cand_a
        ra, rb = rb, ra
    r4 = full & ~(elems[0] | elems[1] | elems[2])
    regions = (
        CellSet(n, r1),
        CellSet(n, ra),
        CellSet(n, rb),
        CellSet(n, r4),
    )
    covers = (CellSet(n, e1), CellSet(n, cand_a), CellSet(n, cand_b))
    return RegionPartition(k=k, n=n, regions=regions, covers=covers)
