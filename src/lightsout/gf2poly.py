"""Polynomial arithmetic over GF(2), packed into Python integers.

A polynomial c_d x^d + ... + c_1 x + c_0 with c_i in {0, 1} is stored as
the integer sum(c_i << i): bit i holds the coefficient of x^i. Addition
is XOR and reduction is the schoolbook Euclidean step, so every function
here takes and returns plain ints, runs on word-packed bit vectors and
stays usable up to degrees in the tens of thousands.

The grid nullity computation lives here as well: the kernel dimension of
the click map on an n-by-n grid equals deg gcd(f(x), f(x+1)) where f is
the (n+1)-st Fibonacci polynomial over GF(2), under the convention
f_1 = 1, f_2 = x, f_m = x*f_{m-1} + f_{m-2}. That convention is validated
against an independent Gaussian-elimination oracle in the test suite.
"""

from __future__ import annotations

from typing import Callable

__all__ = [
    "poly_mod",
    "poly_gcd",
    "poly_compose_x_plus_1",
    "fib_poly",
    "nullity",
    "nullity_range",
]


def poly_mod(a: int, m: int) -> int:
    """Remainder of a modulo m; m must be nonzero."""
    if m == 0:
        raise ZeroDivisionError("polynomial division by zero")
    dm = m.bit_length()
    while True:
        da = a.bit_length()
        if da < dm:
            return a
        a ^= m << (da - dm)


def poly_gcd(a: int, b: int) -> int:
    """Greatest common divisor; not defined when both arguments are zero."""
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    while b:
        a, b = b, poly_mod(a, b)
    return a


# Compose threshold: below this bit length plain Horner beats the split.
_COMPOSE_CUTOFF = 64


def poly_compose_x_plus_1(a: int) -> int:
    """Substitute x+1 for x; an involution since (x+1)+1 = x over GF(2)."""
    # Split at a power-of-two degree: with m = 2^j, (x+1)^m = x^m + 1,
    # so (lo + x^m hi)(x+1) = lo' + hi' + x^m hi'.
    length = a.bit_length()
    if length <= _COMPOSE_CUTOFF:
        r = 0
        for i in range(length - 1, -1, -1):
            r = (r << 1) ^ r ^ ((a >> i) & 1)
        return r
    m = 1 << ((length - 1).bit_length() - 1)
    lo = a & ((1 << m) - 1)
    hi = poly_compose_x_plus_1(a >> m)
    return poly_compose_x_plus_1(lo) ^ hi ^ (hi << m)


def fib_poly(n: int) -> int:
    """The n-th Fibonacci polynomial over GF(2): f_1 = 1, f_2 = x, f_m = x*f_{m-1} + f_{m-2}."""
    if n < 1:
        raise ValueError("fib_poly is defined for n >= 1")
    prev, cur = 0, 1
    for _ in range(n - 1):
        prev, cur = cur, (cur << 1) ^ prev
    return cur


def nullity(n: int) -> int:
    """Kernel dimension of the click map on the n-by-n grid.

    Computed as deg gcd(f(x), f(x+1)) for f the (n+1)-st Fibonacci
    polynomial over GF(2).
    """
    if n < 1:
        raise ValueError("grid side length must be >= 1")
    return _nullity_of_fib(fib_poly(n + 1))


def nullity_range(
    lo: int, hi: int, include: Callable[[int], bool] | None = None
) -> list[tuple[int, int]]:
    """(n, nullity(n)) for every n in [lo, hi] passing ``include``.

    One sweep of the Fibonacci recurrence is shared by all n, so scanning
    a contiguous block costs one polynomial build plus a GCD per reported
    n instead of a fresh build per n.
    """
    if not 1 <= lo <= hi:
        raise ValueError("need 1 <= lo <= hi")
    out: list[tuple[int, int]] = []
    prev, cur = 1, 2  # f_1, f_2; cur tracks f_{n+1} for n = k-1
    for k in range(2, hi + 2):
        n = k - 1
        if n >= lo and (include is None or include(n)):
            out.append((n, _nullity_of_fib(cur)))
        prev, cur = cur, (cur << 1) ^ prev
    return out


def _nullity_of_fib(f: int) -> int:
    return poly_gcd(f, poly_compose_x_plus_1(f)).bit_length() - 1
