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

Two routes compute it. ``nullity_range`` takes that GCD directly for
every side of a block, sharing one sweep of the recurrence. ``nullity``
uses the halving identities (Sutner, TCS 2000; Hunziker, Machiavelo &
Park, TCS 2004), which follow from the doubling formulas
f_{2k} = x*f_k^2 and f_{2k+1} = (f_k + f_{k+1})^2:

    d(2m-1) = 2*d(m-1) + 2*[3 | m],   d(0) = 0,
    d(2m)   = 2*deg gcd(h, h(x+1)),   h = f_m + f_{m+1}.

So d(n) is always even, and d(n) = 2 exactly when n = 2m-1 with
m = 3 (mod 6) and d(m-1) = 0: every nullity-2 side is 5 mod 12.

``nullity`` takes that last GCD over GF(2)[y], y = x^2 + x, at half the
degree. Let s be the substitution x -> x+1. The s-invariant polynomials
are exactly GF(2)[y], every f is uniquely A(y) + x*B(y), and
s(f) = f + B(y), so

    gcd(f, s(f)) = gcd(A(y), B(y)) = G(x^2 + x),   G = gcd(A, B) in GF(2)[y].

The second equality holds because divisibility descends through the
substitution: if P(y) divides Q(y) in GF(2)[x], the quotient is
s-invariant, so it lies in GF(2)[y]. The GCD on the left is s-invariant,
hence some P(y), and P divides A and B, so P | G; G(x^2 + x) divides
both, so P = G. With deg_x G(x^2 + x) = 2*deg G this gives
d(2m) = 4*deg gcd(a, b) for the y-form (a, b) of h, so d(n) is a
multiple of 4 for every even n. The y-form comes straight from doubling
(``_fib_pair_y``), so no substitution is ever computed, and a nullity-2
side costs one GCD of degree about n/8.
"""

from __future__ import annotations

from typing import Callable

__all__ = [
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
    da, db = a.bit_length(), b.bit_length()
    while db:
        if da < db:
            a, b, da, db = b, a, db, da
        a ^= b << (da - db)
        da = a.bit_length()
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


def _square(a: int) -> int:
    """a(x)^2 over GF(2): bit i moves to bit 2i (binary digits read in base 4)."""
    return int(format(a, "b"), 4)


def _fib_pair(m: int) -> tuple[int, int]:
    """(f_m, f_{m+1}) by doubling from (f_0, f_1) = (0, 1), one bit of m at a time."""
    a, b = 0, 1
    for bit in format(m, "b"):
        odd = _square(a ^ b)  # f_{2k+1} = (f_k + f_{k+1})^2
        a, b = (odd, _square(b) << 1) if bit == "1" else (_square(a) << 1, odd)
    return a, b


def _fib_pair_y(m: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(f_m, f_{m+1}) in y-form: each f as (A, B) with f = A(y) + x*B(y), y = x^2 + x.

    Doubling as in ``_fib_pair``, using x^2 = y + x; ``<< 1`` multiplies by y.
    """
    a, b = (0, 0), (1, 0)  # f_0, f_1
    for bit in format(m, "b"):
        sa, sb = _square(a[0] ^ b[0]), _square(a[1] ^ b[1])
        odd = (sa ^ (sb << 1), sb)  # f_{2k+1} = (f_k + f_{k+1})^2
        ea, eb = b if bit == "1" else a
        sq = _square(eb)
        even = (sq << 1, _square(ea) ^ sq ^ (sq << 1))  # f_{2j} = x*f_j^2
        a, b = (odd, even) if bit == "1" else (even, odd)
    return a, b


def fib_poly(n: int) -> int:
    """The n-th Fibonacci polynomial over GF(2): f_1 = 1, f_2 = x, f_m = x*f_{m-1} + f_{m-2}."""
    if n < 1:
        raise ValueError("fib_poly is defined for n >= 1")
    return _fib_pair(n)[0]


def nullity(n: int) -> int:
    """Kernel dimension of the click map on the n-by-n grid, by the halving identities.

    While n = 2m-1 is odd, d(n) = 2*d(m-1) + 2*[3 | m]; an even n = 2m
    ends the loop with one GCD, d(2m) = 4*deg gcd(a, b) over GF(2)[y] for
    the y-form (a, b) of h = f_m + f_{m+1}, so d of an even side is a
    multiple of 4.
    """
    if n < 1:
        raise ValueError("grid side length must be >= 1")
    d, scale = 0, 1
    while n % 2:
        m = (n + 1) // 2
        if m % 3 == 0:
            d += 2 * scale
        scale *= 2
        n = m - 1
    if n:
        (a_m, b_m), (a_m1, b_m1) = _fib_pair_y(n // 2)
        d += 4 * scale * (poly_gcd(a_m ^ a_m1, b_m ^ b_m1).bit_length() - 1)
    return d


def nullity_range(
    lo: int, hi: int, include: Callable[[int], bool] | None = None
) -> list[tuple[int, int]]:
    """(n, d(n)) for every n in [lo, hi] passing ``include``, by direct GCDs.

    Each reported n costs one deg gcd(f_{n+1}, f_{n+1}(x+1)), independent
    of the identities behind ``nullity``. One sweep of the Fibonacci
    recurrence is shared by all n, so a contiguous block costs one
    polynomial build instead of a fresh build per n.
    """
    if not 1 <= lo <= hi:
        raise ValueError("need 1 <= lo <= hi")
    out: list[tuple[int, int]] = []
    prev, cur = 1, 2  # f_1, f_2; cur tracks f_{n+1} for n = k-1
    for k in range(2, hi + 2):
        n = k - 1
        if n >= lo and (include is None or include(n)):
            out.append((n, _gcd_degree(cur)))
        prev, cur = cur, (cur << 1) ^ prev
    return out


def _gcd_degree(f: int) -> int:
    """deg gcd(f(x), f(x+1))."""
    return poly_gcd(f, poly_compose_x_plus_1(f)).bit_length() - 1
