"""Even parity covers: recognition, reflective tiling, region partition."""

import random

import pytest

from lightsout.covers import is_even_cover, region_partition, tile_cover
from lightsout.gf2poly import nullity
from lightsout.gridmap import CellSet, apply_clicks, kernel_basis, parse_pattern

import naive


def xor_rank(vectors):
    basis = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def test_kernel_elements_are_even_covers():
    for n in (4, 5, 9, 11):
        for e in kernel_basis(n).span_nonzero():
            assert is_even_cover(e)


def test_even_cover_iff_in_kernel():
    rng = random.Random(0xD1CE)
    for _ in range(300):
        cs = CellSet(5, rng.getrandbits(25))
        assert is_even_cover(cs) == (apply_clicks(cs) == CellSet.empty(5))


def test_empty_set_is_a_cover_and_singletons_are_not():
    assert is_even_cover(CellSet.empty(6))
    for v in range(16):
        assert not is_even_cover(CellSet(4, 1 << v))


def test_tile_cover_k1_is_identity():
    for n in (5, 6):
        for q in kernel_basis(n - 1).span_nonzero():
            assert tile_cover(q, n, 1) == q


def test_tile_cover_of_empty_is_empty():
    out = tile_cover(CellSet.empty(4), 5, 3)
    assert out == CellSet.empty(14)


def test_tile_cover_output_side():
    q = kernel_basis(5).span_nonzero()[0]
    for k in (1, 2, 3, 4):
        assert tile_cover(q, 6, k).n == 6 * k - 1


def test_tiled_covers_stay_covers():
    for n in (5, 6):
        for q in kernel_basis(n - 1).span_nonzero():
            for k in range(1, 6):
                assert is_even_cover(tile_cover(q, n, k))


# sides nk - 1 <= 150, k >= 2, whose nullity equals that of the base side n - 1
SAME_NULLITY = {
    4: [14, 24, 34, 44, 54, 74, 94, 104, 114, 124, 134, 144],
    5: [17, 41, 53, 77, 113, 137],
    9: [49, 69, 109],
    11: [35, 83, 107],
    16: [50, 118],
}


def test_tiling_gives_the_whole_kernel_where_nullity_holds():
    # tiling is linear and injective, so where the nullity does not grow
    # the tiled images are exactly the nonzero kernel elements of the big side
    for m, sides in SAME_NULLITY.items():
        n = m + 1
        assert [s for s in range(2 * n - 1, 151, n) if nullity(s) == nullity(m)] == sides
        base = kernel_basis(m).span_nonzero()
        for side in sides:
            tiled = {tile_cover(q, n, (side + 1) // n) for q in base}
            assert tiled == set(kernel_basis(side).span_nonzero()), (m, side)


def test_tiling_4x4_kernel_images_have_full_rank():
    # tiling is linear and injective: the 15 nonzero 4x4 covers map to
    # 15 distinct 9x9 covers spanning a dimension-4 subspace
    images = [tile_cover(q, 5, 2) for q in kernel_basis(4).span_nonzero()]
    assert len(set(images)) == 15
    assert xor_rank([im.bits for im in images]) == 4
    assert all(im.n == 9 for im in images)


def test_tile_cover_is_linear():
    a, b, c = kernel_basis(5).span_nonzero()
    assert tile_cover(a, 6, 4) ^ tile_cover(b, 6, 4) == tile_cover(c, 6, 4)


def test_tile_cover_validates_input():
    q = kernel_basis(5).span_nonzero()[0]
    with pytest.raises(ValueError):
        tile_cover(q, 5, 2)  # q.n must be n-1
    with pytest.raises(ValueError):
        tile_cover(q, 6, 0)
    with pytest.raises(ValueError):
        tile_cover(CellSet(5, 1), 6, 2)  # not an even cover


def test_tile_cover_matches_naive_oracle():
    for n in (5, 6, 10, 12):
        m = n - 1
        for q in kernel_basis(m).span_nonzero()[:16]:
            rows = [[(q.bits >> (r * m + c)) & 1 for c in range(m)] for r in range(m)]
            for k in range(1, 9):
                side = n * k - 1
                bits = tile_cover(q, n, k).bits
                got = [[(bits >> (r * side + c)) & 1 for c in range(side)] for r in range(side)]
                assert got == naive.tile_naive(rows, n, k), (n, q.bits, k)


def test_tile_cover_reflection_golden():
    # a cover marked only in its top-left corner lands reflected copies
    # at the corner-adjacent positions of every tile
    q = parse_pattern("#.#.#\n#.#.#\n.....\n#.#.#\n#.#.#\n")
    out = tile_cover(q, 6, 2)
    assert out.n == 11
    rows = str(out).splitlines()
    assert rows[0] == "#.#.#.#.#.#"
    assert rows[5] == "..........."
    assert rows == [r[::-1] for r in rows]          # mirror symmetric
    assert rows == rows[::-1]                        # flip symmetric


# -- region partition -----------------------------------------------------------

def test_region_partition_sizes_k1_k3():
    for k in (1, 3):
        sizes = tuple(len(r) for r in region_partition(k))
        assert sizes == (4 * k**2, 8 * k**2, 8 * k**2, 16 * k**2 - 12 * k + 1)
        assert sum(sizes) == (6 * k - 1) ** 2


def test_region_partition_is_a_partition():
    for k in (1, 3):
        n = 6 * k - 1
        union = 0
        total = 0
        for region in region_partition(k):
            assert region.n == n
            assert union & region.bits == 0
            union |= region.bits
            total += len(region)
        assert union == (1 << n**2) - 1
        assert total == n**2


def test_region_membership_counts():
    # the three nonzero kernel elements sum to zero, so every cell lies
    # in exactly 0 or exactly 2 of them; regions are those classes
    e1, e2, e3 = (e.bits for e in kernel_basis(17).span_nonzero())
    assert e1 ^ e2 ^ e3 == 0
    r1, r2, r3, r4 = (reg.bits for reg in region_partition(3))
    for v in range(17**2):
        members = sum(1 for e in (e1, e2, e3) if (e >> v) & 1)
        region = next(
            i for i, r in enumerate((r1, r2, r3, r4), start=1) if (r >> v) & 1
        )
        if region == 4:
            assert members == 0
        else:
            assert members == 2


def test_region_labels_match_cover_intersections():
    # R1, R2, R3 are the pairwise cover intersections, the 4k^2 one
    # first, then the 8k^2 ones by their first cell in row-major order
    for k in (1, 3, 7, 9, 13):  # every d = 2 side that mcp --k 1..13 certifies
        e1, e2, e3 = (e.bits for e in kernel_basis(6 * k - 1).span_nonzero())
        r1, r2, r3, _ = (reg.bits for reg in region_partition(k))
        assert {r1, r2, r3} == {e1 & e2, e1 & e3, e2 & e3}
        assert r1.bit_count() == 4 * k * k
        assert (r2 & -r2) < (r3 & -r3)


def test_region_partition_k1_corners():
    r1 = region_partition(1)[0]
    assert r1.bits == (1 << 0) | (1 << 4) | (1 << 20) | (1 << 24)  # the four corners


def test_region_partition_rejects_other_nullities():
    with pytest.raises(ValueError, match="nullity"):
        region_partition(2)  # 11x11 has nullity 6
    with pytest.raises(ValueError):
        region_partition(0)


def test_region_partition_type():
    regions = region_partition(1)
    assert isinstance(regions, tuple) and len(regions) == 4
    assert all(isinstance(r, CellSet) and r.n == 5 for r in regions)
