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

from lightsout.cli import main
from lightsout.covers import is_even_cover
from lightsout.gf2poly import nullity
from lightsout.gridmap import (
    CellSet,
    apply_clicks,
    format_pattern,
    kernel_basis,
    solve_particular,
)

KERNEL_STDOUT_SHA256 = "8ddd8f26c0e4dc7cf1a18dd3303ccdb10dc9b55aa9760bda22fc487c6d9ed223"
SOLVE_SHA256 = "77b885d5a06d4397be8288e18d970be1eba822d6427878341f79118675da6928"


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
