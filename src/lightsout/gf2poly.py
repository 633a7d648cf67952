"""Polynomial arithmetic over GF(2), packed into Python integers.

A polynomial c_d x^d + ... + c_1 x + c_0 with c_i in {0, 1} is stored as
the integer sum(c_i << i): bit i holds the coefficient of x^i. Addition
is XOR and the GCD is the schoolbook Euclidean step, so every function
here takes and returns plain ints, runs on word-packed bit vectors and
stays usable up to degrees in the tens of thousands.

The grid nullity computation lives here as well: the kernel dimension of
the click map on an n-by-n grid equals deg gcd(f(x), f(x+1)) where f is
the (n+1)-st Fibonacci polynomial over GF(2), under the convention
f_1 = 1, f_2 = x, f_m = x*f_{m-1} + f_{m-2}. That convention is validated
against an independent Gaussian-elimination oracle in the test suite.

Every such GCD is taken over GF(2)[y], y = x^2 + x, at half the degree,
by the following lemma. Let s be the substitution x -> x+1. The
s-invariant polynomials are exactly GF(2)[y], every f is uniquely
A(y) + x*B(y), and s(f) = f + B(y), so

    gcd(f, s(f)) = gcd(A(y), B(y)) = G(x^2 + x),   G = gcd(A, B) in GF(2)[y].

The second equality holds because divisibility descends through the
substitution: if P(y) divides Q(y) in GF(2)[x], the quotient is
s-invariant, so it lies in GF(2)[y]. The GCD on the left is s-invariant,
hence some P(y), and P divides A and B, so P | G; G(x^2 + x) divides
both, so P = G. With deg_x G(x^2 + x) = 2*deg G this gives
d(n) = 2*deg gcd(A, B) for the y-form (A, B) of f_{n+1}.

The recurrence stays in y-form: x^2 = y + x gives
x*(A + x*B) = y*B + x*(A + B), so

    (A_{k+1}, B_{k+1}) = (y*B_k + A_{k-1}, A_k + B_k + B_{k-1}),

from f_1 = (1, 0) and f_2 = (0, 1); ``<< 1`` multiplies by y.

Two routes compute d(n); they share ``_poly_gcd``, the lemma and the
recurrence step above (``_y_sweep``). ``nullity_range`` takes one GCD
for every side of a block, over one sweep of that recurrence from f_1;
a full census block (``_sweep_block``) resumes it at its first side.
``nullity`` uses the halving identities (Sutner, TCS 2000; Hunziker,
Machiavelo & Park, TCS 2004), which follow from the doubling formulas
f_{2k} = x*f_k^2 and f_{2k+1} = (f_k + f_{k+1})^2:

    d(2m-1) = 2*d(m-1) + 2*[3 | m],   d(0) = 0,
    d(2m)   = 2*deg gcd(h, h(x+1)),   h = f_m + f_{m+1}.

So d(n) is always even, and d(n) = 2 exactly when n = 2m-1 with
m = 3 (mod 6) and d(m-1) = 0: every nullity-2 side is 5 mod 12. By the
lemma, d(2m) = 4*deg gcd(a, b) for the y-form (a, b) of h, so d(n) is a
multiple of 4 for every even n. That y-form comes straight from
doubling (``_fib_pair_y``), so no substitution is ever computed. A side
n = 5 (mod 12) takes one odd step, with 3 | (n+1)/2, to an even side:

    d(n) = 2 + 8*deg gcd(a, b),   m = (n-1)/4,

one GCD of degree about n/8. A fast census block (``_fast_block``) finds
its first such side, doubles once, then steps m -> m + 3 by three
recurrence steps a side. The sweep never doubles and ``nullity`` never
sweeps, which
``test_fast_and_full_routes_stay_independent`` and
``test_census_routes_stay_independent`` check by patching one out.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable

__all__ = ["nullity", "nullity_range"]

# The largest m that ``_fib_pair_y`` doubles to. Its work and memory grow with m:
# m = 2^25 took 0.2-0.3 s and 43-44 MB peak RSS (2 vCPUs, Python 3.11.7). The cap
# admits d(2*3^k - 1) up to k = 16, which doubles to m = 21,523,360.
DOUBLING_CAP = 2**25


def _poly_gcd(a: int, b: int) -> int:
    """Greatest common divisor; not defined when both arguments are zero."""
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    db = b.bit_length()
    while db:
        da = a.bit_length()
        while da >= db:  # a mod b, one leading term at a time
            a ^= b << (da - db)
            da = a.bit_length()
        a, b, db = b, a, da
    return a


def _square(a: int) -> int:
    """a(x)^2 over GF(2): bit i moves to bit 2i (binary digits read in base 4)."""
    return int(format(a, "b"), 4)


def _fib_pair_y(m: int) -> tuple[int, int, int, int]:
    """``_y_sweep``'s state (A_m, B_m, A_{m+1}, B_{m+1}): f = A(y) + x*B(y), y = x^2 + x.

    Doubling from (f_0, f_1), one bit of m at a time, by f_{2k} = x*f_k^2
    and f_{2k+1} = (f_k + f_{k+1})^2, using x^2 = y + x; ``<< 1``
    multiplies by y.
    """
    a, b = (0, 0), (1, 0)  # f_0, f_1
    for bit in format(m, "b"):
        sa, sb = _square(a[0] ^ b[0]), _square(a[1] ^ b[1])
        odd = (sa ^ (sb << 1), sb)  # f_{2k+1} = (f_k + f_{k+1})^2
        ea, eb = b if bit == "1" else a
        sq = _square(eb)
        even = (sq << 1, _square(ea) ^ sq ^ (sq << 1))  # f_{2j} = x*f_j^2
        a, b = (odd, even) if bit == "1" else (even, odd)
    return (*a, *b)


def nullity(n: int) -> int:
    """Kernel dimension of the click map on the n-by-n grid, by the halving identities.

    While n = 2m-1 is odd, d(n) = 2*d(m-1) + 2*[3 | m]; an even n = 2m
    ends the loop with one GCD, d(2m) = 4*deg gcd(a, b) over GF(2)[y] for
    the y-form (a, b) of h = f_m + f_{m+1}, so d of an even side is a
    multiple of 4. An m past ``DOUBLING_CAP`` is refused before doubling.
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
    if n // 2 > DOUBLING_CAP:  # refused before f_m is built
        raise ValueError(f"doubling to f_{n // 2} passes the doubling cap {DOUBLING_CAP}")
    if n:
        a_m, b_m, a_m1, b_m1 = _fib_pair_y(n // 2)
        d += 4 * scale * (_poly_gcd(a_m ^ a_m1, b_m ^ b_m1).bit_length() - 1)
    return d


def nullity_range(
    lo: int, hi: int, include: Callable[[int], bool] | None = None
) -> list[tuple[int, int]]:
    """(n, d(n)) for every n in [lo, hi] passing ``include``, by direct GCDs.

    Each reported n costs one d(n) = 2*deg gcd(A, B) over GF(2)[y] for
    the y-form (A, B) of f_{n+1}, independent of the identities behind
    ``nullity``. One sweep of the y-form recurrence from n = 1 is shared
    by all n, so a contiguous block costs one polynomial build instead of
    a fresh build per n.
    """
    if not 1 <= lo <= hi:
        raise ValueError("need 1 <= lo <= hi")
    return _sweep_block(lo, hi, include, next(islice(_y_sweep(), lo - 1, None)))


def _y_sweep(a0: int = 1, b0: int = 0, a1: int = 0, b1: int = 1):
    """Yield (A_k, B_k, A_{k+1}, B_{k+1}) of (f_k, f_{k+1}), k onwards; f_1, f_2 by default."""
    while True:
        yield a0, b0, a1, b1
        a0, b0, a1, b1 = a1, b1, (b1 << 1) ^ a0, a1 ^ b1 ^ b0


def _sweep_block(lo: int, hi: int, include: Callable[[int], bool] | None,
                 state: tuple[int, int, int, int]) -> list[tuple[int, int]]:
    """``nullity_range`` resuming the sweep at ``state``, the y-forms of (f_lo, f_{lo+1})."""
    return [(n, 2 * (_poly_gcd(a, b).bit_length() - 1))
            for n, (_, _, a, b) in zip(range(lo, hi + 1), _y_sweep(*state))
            if include is None or include(n)]


def _fast_block(lo: int, hi: int) -> list[tuple[int, int]]:
    """(n, d(n)) for every n = 5 (mod 12) in [lo, hi]: (f_m, f_{m+1}),
    m = (n - 1)/4, doubled once for the first side, then three recurrence
    steps a side take m to m + 3."""
    first = lo + (5 - lo) % 12
    states = islice(_y_sweep(*_fib_pair_y((first - 1) // 4)), 0, None, 3)
    return [(n, 2 + 8 * (_poly_gcd(a0 ^ a1, b0 ^ b1).bit_length() - 1))
            for n, (a0, b0, a1, b1) in zip(range(first, hi + 1, 12), states)]
