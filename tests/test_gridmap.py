"""Grid layer: cell sets, the click map, kernels, solving, pattern I/O."""

import copy
import pickle
import random

import pytest

from lightsout import gridmap
from lightsout.gridmap import (
    CellSet,
    UnsolvableError,
    all_solutions,
    apply_clicks,
    format_pattern,
    format_pbm,
    is_solvable,
    kernel_basis,
    lex_less,
    min_clicks,
    parse_pattern,
    solve_particular,
)

import naive


def rand_cellset(rng, n):
    return CellSet(n, rng.getrandbits(n * n))


def span_bits(n):
    return {0} | {e.bits for e in kernel_basis(n).span_nonzero()}


# -- CellSet basics -----------------------------------------------------------

def test_cellset_constructors():
    assert CellSet.empty(3).bits == 0
    assert CellSet.full(3).bits == (1 << 9) - 1
    assert CellSet(3, 1 | (1 << 7)).bits == 1 | (1 << 7)


def test_cellset_rejects_out_of_range_bits():
    with pytest.raises(ValueError):
        CellSet(2, 1 << 4)
    with pytest.raises(ValueError):
        CellSet(2, -1)
    with pytest.raises(ValueError):
        CellSet(0, 0)


def test_cellset_set_algebra():
    a = CellSet(3, (1 << 0) | (1 << 4))  # cells (0, 0) and (1, 1)
    b = CellSet(3, (1 << 4) | (1 << 8))  # cells (1, 1) and (2, 2)
    assert (a ^ b).bits == (1 << 0) | (1 << 8)
    assert len(a) == 2
    assert a != b and a == CellSet(3, a.bits)
    assert len({a, CellSet(3, a.bits)}) == 1


def test_cellset_grid_size_mismatch():
    with pytest.raises(ValueError):
        CellSet.empty(3) ^ CellSet.empty(4)


def test_cellset_bool_and_repr():
    assert not CellSet.empty(5)
    assert CellSet.full(1)
    assert "CellSet" in repr(CellSet.empty(2))


def test_cellset_refuses_assignment_so_the_cached_kernel_survives():
    # kernel_basis(5) is cached, so its vectors are shared by every caller
    before = [(e.n, e.bits) for e in kernel_basis(5)]
    for field in ("bits", "n"):
        with pytest.raises(AttributeError, match="CellSet is immutable"):
            setattr(kernel_basis(5)[0], field, 0)
    assert [(e.n, e.bits) for e in kernel_basis(5)] == before
    cs, kb = kernel_basis(5)[0], kernel_basis(5)
    assert pickle.loads(pickle.dumps(cs)) == cs and copy.copy(kb) == kb
    assert type(pickle.loads(pickle.dumps(kb))) is type(kb) and pickle.loads(pickle.dumps(kb)) == kb


# -- neighborhoods and the click map -------------------------------------------

@pytest.mark.parametrize(
    "v, count", [(0, 3), (2, 4), (12, 5), (24, 3), (10, 4)]
)
def test_neighborhood_sizes_5x5(v, count):
    assert len(apply_clicks(CellSet(5, 1 << v))) == count


def test_neighborhood_matches_oracle():
    # one click lights exactly the cell's closed neighborhood
    for n in (1, 2, 3, 4, 5):
        for v in range(n * n):
            assert apply_clicks(CellSet(n, 1 << v)).bits == naive.neighborhood_naive(
                n, v // n, v % n
            )


def test_apply_clicks_matches_oracle():
    rng = random.Random(0x11)
    for n in range(1, 25):
        for _ in range(40):
            clicks = rand_cellset(rng, n)
            assert apply_clicks(clicks).bits == naive.apply_clicks_naive(n, clicks.bits)


def test_apply_clicks_is_linear():
    rng = random.Random(0x22)
    for _ in range(300):
        a, b = rand_cellset(rng, 5), rand_cellset(rng, 5)
        assert apply_clicks(a ^ b) == apply_clicks(a) ^ apply_clicks(b)


def test_apply_clicks_involution_via_double_click():
    # clicking the same set twice cancels
    rng = random.Random(0x33)
    for _ in range(100):
        a = rand_cellset(rng, 4)
        assert apply_clicks(a ^ a) == CellSet.empty(4)


# -- kernel --------------------------------------------------------------------

def test_kernel_dimensions_small():
    assert [len(kernel_basis(n)) for n in range(1, 9)] == [0, 0, 0, 4, 2, 0, 0, 0]


def test_kernel_span_matches_oracle():
    for n in range(1, 7):
        assert span_bits(n) == naive.kernel_span_naive(n), n


def test_kernel_elements_are_invisible_to_the_click_map():
    for n in (4, 5, 9):
        for e in kernel_basis(n):
            assert apply_clicks(e) == CellSet.empty(n)
            assert len(e) > 0


def test_kernel_basis_is_reduced_and_sorted():
    # 300..599 are test_chasing's large sides, beyond its n <= 64 digests
    for n in (4, 5, 9, 11, 300, 341, 383, 599):
        basis = list(kernel_basis(n))
        lows = [e.bits & -e.bits for e in basis]
        assert lows == sorted(lows)  # sorted by leading cell
        assert len(set(lows)) == len(lows)
        for e, low in zip(basis, lows):
            #  reduced: no other basis vector contains this pivot cell
            assert all(other.bits & low == 0 for other in basis if other is not e)


@pytest.mark.parametrize("n", [0, -2])
def test_kernel_basis_rejects_nonpositive_sides(n):
    with pytest.raises(ValueError, match="grid side length must be >= 1"):
        kernel_basis(n)


def test_kernel_basis_cached_identity():
    assert kernel_basis(17) is kernel_basis(17)


def test_span_nonzero_count():
    assert len(kernel_basis(5).span_nonzero()) == 3
    assert len(kernel_basis(4).span_nonzero()) == 15
    assert kernel_basis(3).span_nonzero() == []


# nonempty nonzero cell types on the d = 8 sides up to 120
D8_TYPES = {9: 55, 16: 60, 49: 55, 50: 60, 69: 55, 109: 55, 118: 60}


def test_nonempty_nonzero_type_counts_up_to_120():
    by_d = {0: 0, 2: 3, 4: 12, 6: 22}
    seen_d8 = {}
    for n in range(1, 121):
        kb = kernel_basis(n)
        if len(kb) > 8:
            continue
        count = sum(1 for m in naive.cell_types_naive(n, [e.bits for e in kb])[1:] if m)
        if len(kb) == 8:
            seen_d8[n] = count
        else:
            assert count == by_d[len(kb)], f"n={n}, d={len(kb)}"
    assert seen_d8 == D8_TYPES


# -- solvability and solving ----------------------------------------------------

def test_is_solvable_matches_oracle():
    rng = random.Random(0x44)
    for n in (3, 4, 5):
        for _ in range(60):
            config = rand_cellset(rng, n)
            assert is_solvable(config) == (naive.solve_naive(n, config.bits) is not None)


def test_single_light_solvability_on_5x5_tracks_kernel_support():
    # a lone light is solvable exactly when its cell avoids every kernel
    # element (orthogonality); on the 5x5 that leaves 5 solvable cells
    union = 0
    for e in kernel_basis(5).span_nonzero():
        union |= e.bits
    solvable_cells = [v for v in range(25) if is_solvable(CellSet(5, 1 << v))]
    assert solvable_cells == [v for v in range(25) if not (union >> v) & 1]
    assert len(solvable_cells) == 5
    assert not is_solvable(CellSet(5, 1))  # the corner in particular


def test_solve_particular_round_trip():
    rng = random.Random(0x55)
    for n in (1, 2, 3, 4, 5, 6, 7):
        for _ in range(30):
            config = apply_clicks(rand_cellset(rng, n))  # always solvable
            sol = solve_particular(config)
            assert apply_clicks(sol) == config


def test_solve_particular_raises_on_unsolvable():
    with pytest.raises(UnsolvableError):
        solve_particular(CellSet(5, 1))


def test_solve_particular_is_canonical():
    # the returned solution has no weight on the kernel's leading cells,
    # so it is the same member of the coset every time
    rng = random.Random(0x66)
    pivots = [e.bits & -e.bits for e in kernel_basis(5)]
    for _ in range(50):
        config = apply_clicks(rand_cellset(rng, 5))
        sol = solve_particular(config)
        assert all(sol.bits & p == 0 for p in pivots)


def test_all_solutions_structure():
    rng = random.Random(0x77)
    for n, expect in ((3, 1), (5, 4), (4, 16)):
        config = apply_clicks(rand_cellset(rng, n))
        sols = all_solutions(config)
        assert len(sols) == expect
        assert len(set(sols)) == expect
        assert all(apply_clicks(s) == config for s in sols)


def test_all_solutions_differ_by_kernel():
    config = apply_clicks(CellSet(5, 1 << 12))  # click the center
    sols = all_solutions(config)
    diffs = {(sols[0] ^ s).bits for s in sols}
    assert diffs == span_bits(5)


def test_all_solutions_unsolvable():
    with pytest.raises(UnsolvableError):
        all_solutions(CellSet(5, 1 << 3))


def test_nullity_cap_refuses_big_kernels(monkeypatch):
    def no_kernel(n):
        raise AssertionError(f"kernel_basis({n}) chased for an enumeration that is refused")

    monkeypatch.setattr(gridmap, "kernel_basis", no_kernel)
    config = apply_clicks(CellSet.full(39))  # nullity 32, over the cap of 20
    with pytest.raises(ValueError, match="nullity 32"):
        all_solutions(config)
    with pytest.raises(ValueError, match="nullity 32"):
        min_clicks(config)
    with pytest.raises(UnsolvableError):  # solving still comes first
        min_clicks(CellSet(39, 1))


def test_span_refuses_big_kernels_before_allocating(monkeypatch):
    def no_span(basis, start):
        raise AssertionError("span walked before the cap was checked")

    kb = kernel_basis(39)  # nullity 32: 2^32 entries, over the cap of 20
    monkeypatch.setattr(gridmap, "_span", no_span)
    with pytest.raises(ValueError, match="nullity 32 exceeds the enumeration cap 20"):
        kb.span_nonzero()


def test_solving_never_builds_the_kernel(monkeypatch):
    def no_kernel(n):
        raise AssertionError(f"kernel_basis({n}) built to solve a board")

    monkeypatch.setattr(gridmap, "kernel_basis", no_kernel)
    rng = random.Random(0x5A)
    for _ in range(40):
        config = rand_cellset(rng, 5)
        expect = naive.solve_naive(5, config.bits) is not None
        assert is_solvable(config) == expect
        if expect:
            assert apply_clicks(solve_particular(config)) == config
        else:
            with pytest.raises(UnsolvableError):
                solve_particular(config)
    config = apply_clicks(rand_cellset(rng, 39))
    assert is_solvable(config)
    assert apply_clicks(solve_particular(config)) == config
    assert not is_solvable(CellSet(39, 1))
    with pytest.raises(UnsolvableError):
        solve_particular(CellSet(39, 1))


def test_min_clicks_matches_exhaustive_oracle():
    rng = random.Random(0x88)
    for n in (2, 3):
        for _ in range(12):
            config = apply_clicks(rand_cellset(rng, n))
            count, witness = min_clicks(config)
            assert count == naive.brute_min_clicks(n, config.bits)
            assert apply_clicks(witness) == config
            assert len(witness) == count


def test_min_clicks_matches_exhaustive_oracle_4x4():
    rng = random.Random(0x99)
    for _ in range(8):
        config = apply_clicks(rand_cellset(rng, 4))
        count, witness = min_clicks(config)
        assert count == naive.brute_min_clicks(4, config.bits)
        assert apply_clicks(witness) == config


def test_min_clicks_is_minimum_of_all_solutions():
    rng = random.Random(0xAA)
    for _ in range(40):
        config = apply_clicks(rand_cellset(rng, 5))
        count, witness = min_clicks(config)
        sols = all_solutions(config)
        assert count == min(len(s) for s in sols)
        assert witness in sols


def test_min_clicks_tie_break_is_lexicographic():
    rng = random.Random(0xBB)
    for _ in range(40):
        config = apply_clicks(rand_cellset(rng, 4))
        count, witness = min_clicks(config)
        ties = [s for s in all_solutions(config) if len(s) == count]
        assert witness == min(ties, key=lambda s: reading_order(s.bits, config.n ** 2))


def reading_order(bits, width):
    """Cells as a '0'/'1' string in reading order, cell 0 first."""
    return format(bits, f"0{width}b")[::-1]


def test_lex_key_orders_by_reading_order():
    # at the first cell (reading order) where two sets differ, the set
    # NOT containing it sorts first: binary-string order with 0 < 1
    a = 1 << 0  # cell (0, 0)
    b = 1 << 1  # cell (0, 1)
    c = (1 << 1) | (1 << 8)  # cells (0, 1) and (2, 2)
    assert lex_less(b, a) and not lex_less(a, b)
    assert lex_less(b, c) and lex_less(c, a)
    assert not lex_less(a, a)


def test_lex_less_matches_reading_order_strings():
    rng = random.Random(0xCC)
    for _ in range(2000):
        width = rng.randrange(1, 40)
        a = rng.getrandbits(width)
        b = a ^ rng.getrandbits(width) if rng.randrange(4) else a
        assert lex_less(a, b) == (reading_order(a, width) < reading_order(b, width))


def test_unsolvable_error_is_a_value_error():
    assert issubclass(UnsolvableError, ValueError)


# -- pattern text and PBM -------------------------------------------------------

def test_pattern_round_trip():
    rng = random.Random(0xCC)
    for n in (1, 2, 5, 9):
        for _ in range(20):
            cs = rand_cellset(rng, n)
            assert parse_pattern(format_pattern(cs)) == cs


def test_parse_pattern_golden():
    cs = parse_pattern("#..\n.#.\n..#\n")
    assert cs == CellSet(3, (1 << 0) | (1 << 4) | (1 << 8))


def test_parse_pattern_tolerates_missing_final_newline():
    assert parse_pattern("#.\n.#") == CellSet(2, (1 << 0) | (1 << 3))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n",
        "##\n#\n",          # ragged
        "##\n##\n##\n",      # non-square
        "#x\n##\n",          # bad character
        "# #\n###\n###\n",   # spaces are not cells
    ],
)
def test_parse_pattern_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_pattern(text)


def test_format_pattern_golden():
    cs = CellSet(2, (1 << 1) | (1 << 2))
    assert format_pattern(cs) == ".#\n#.\n"


def test_format_pbm_golden():
    cs = CellSet(2, (1 << 0) | (1 << 3))
    assert format_pbm(cs) == "P1\n2 2\n1 0\n0 1\n"


def test_format_pbm_header_dimensions():
    out = format_pbm(CellSet.empty(7))
    lines = out.splitlines()
    assert lines[0] == "P1"
    assert lines[1] == "7 7"
    assert len(lines) == 2 + 7
