"""Property tests of the click map and the solvers on random grids."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from lightsout.gf2poly import nullity
from lightsout.gridmap import (
    CellSet,
    all_solutions,
    apply_clicks,
    is_solvable,
    kernel_basis,
    min_clicks,
    solve_particular,
)

import naive

SMALL_COSETS = [n for n in range(1, 41) if nullity(n) <= 8]  # at most 256 solutions


@st.composite
def click_sets(draw, sides):
    n = draw(sides)
    return CellSet(n, draw(st.integers(0, (1 << (n * n)) - 1)))


@given(click_sets(st.integers(1, 40)))
def test_solve_particular_solves_every_image(clicks):
    board = apply_clicks(clicks)
    assert apply_clicks(solve_particular(board)) == board


@given(click_sets(st.integers(1, 40)), st.booleans())
def test_is_solvable_iff_orthogonal_to_the_kernel(board, image):
    # the click matrix is symmetric, so its image is the kernel's
    # orthogonal complement: an oracle independent of the reduction
    if image:
        board = apply_clicks(board)
    orthogonal = all((board.bits & e.bits).bit_count() % 2 == 0 for e in kernel_basis(board.n))
    assert is_solvable(board) == orthogonal


@given(click_sets(st.sampled_from(SMALL_COSETS)))
def test_min_clicks_is_at_most_every_coset_member(clicks):
    board = apply_clicks(clicks)
    count, witness = min_clicks(board)
    coset = all_solutions(board)
    assert clicks in coset and witness in coset
    assert len(witness) == count
    assert all(count <= len(s) for s in coset)


@given(click_sets(st.integers(1, 8)))
def test_apply_clicks_matches_naive(clicks):
    assert apply_clicks(clicks).bits == naive.apply_clicks_naive(clicks.n, clicks.bits)
