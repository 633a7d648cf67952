"""Light chasing: answers pinned to the full-matrix elimination it replaced,
and kernels at sizes that elimination could not reach.

The digests were taken from the n^2 x n^2 bitset elimination for every
n = 1..64; the chasing route must reproduce its output byte for byte.
"""

import contextlib
import hashlib
import io
import random

import pytest

from lightsout.cli import SIDE_CAP, main
from lightsout.covers import is_even_cover
from lightsout.gf2poly import nullity
from lightsout.gridmap import (
    CellSet,
    _residual_matrix,
    apply_clicks,
    format_pattern,
    kernel_basis,
    solve_particular,
)

KERNEL_STDOUT_SHA256 = "8ddd8f26c0e4dc7cf1a18dd3303ccdb10dc9b55aa9760bda22fc487c6d9ed223"
SOLVE_SHA256 = "77b885d5a06d4397be8288e18d970be1eba822d6427878341f79118675da6928"
# solve_particular on two seeded images per side, from the elimination that
# reduced M's columns first to last and then cleared the kernel from the clicks
LARGE_SOLVE_SHA256 = {
    599: ["a0802e4f64cb8f94e43721a55e6d29cd155995381b055fbf69bb8c28aedb524c",
          "063f5032112b571c5ae3d8fd748f931affef87fa1ec70c664e4e6e58d4204e65"],
    959: ["87bd3d9b88f4af54a0115d9e64473180d656e18e47db017ed313acd6fad49301",
          "6f30feb28250a1e31b4a9437bd301a0492196dc22eace90bb9913c3ed476e9f1"],
}


def test_kernel_stdout_matches_elimination_n1_to_64():
    h = hashlib.sha256()
    for n in range(1, 65):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["kernel", str(n)]) == 0
        h.update(buf.getvalue().encode())
    assert h.hexdigest() == KERNEL_STDOUT_SHA256


def test_solve_particular_matches_elimination_n1_to_64():
    rng = random.Random(0x5EED)
    h = hashlib.sha256()
    for n in range(1, 65):
        for _ in range(2):
            board = apply_clicks(CellSet(n, rng.getrandbits(n * n)))
            h.update(format_pattern(solve_particular(board)).encode())
    assert h.hexdigest() == SOLVE_SHA256


@pytest.mark.parametrize("n", [300, 341, 383, 599])
def test_kernel_dimension_agrees_with_gcd_route_beyond_elimination(n):
    basis = kernel_basis(n)
    assert len(basis) == nullity(n)
    assert all(is_even_cover(e) for e in basis)


def test_elimination_agrees_with_gcd_route_at_every_side_to_the_cap():
    # the null first rows of the column recurrence against the halving identities
    wrong = [n for n in range(1, SIDE_CAP + 1) if len(_residual_matrix(n)[1]) != nullity(n)]
    assert wrong == []


@pytest.mark.parametrize("n", sorted(LARGE_SOLVE_SHA256))
def test_solve_particular_digests_beyond_elimination(n):
    rng = random.Random(n)
    digests = []
    for _ in range(2):
        board = apply_clicks(CellSet(n, rng.getrandbits(n * n)))
        digests.append(hashlib.sha256(format_pattern(solve_particular(board)).encode()).hexdigest())
    assert digests == LARGE_SOLVE_SHA256[n]


def test_solve_particular_at_599_is_canonical():
    rng = random.Random(0x599)
    leading = [e.bits & -e.bits for e in kernel_basis(599)]
    assert len(leading) == 46
    for _ in range(2):
        board = apply_clicks(CellSet(599, rng.getrandbits(599 * 599)))
        sol = solve_particular(board)
        assert apply_clicks(sol) == board
        assert all(sol.bits & p == 0 for p in leading)
