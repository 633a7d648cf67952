"""Polynomial layer vs. the list-based oracle in naive.py."""

import random

import pytest

from lightsout import gf2poly
from lightsout.gf2poly import _fast_block, _fib_pair_y, _poly_gcd, nullity, nullity_range
from lightsout.scan import _block_ends

import naive


def from_list(coeffs):
    return sum(c << i for i, c in enumerate(coeffs))


def to_list(p):
    return [(p >> i) & 1 for i in range(p.bit_length())]


def random_poly(rng, max_deg):
    return [rng.randrange(2) for _ in range(rng.randrange(max_deg + 1))]


def test_divmod_identity():
    # a = q*b + r with deg r < deg b, checked through the oracle's divmod
    rng = random.Random(7)
    for _ in range(100):
        a, b = random_poly(rng, 40), random_poly(rng, 15)
        if not naive.p_trim(b):
            continue
        q, r = naive.p_divmod(a, b)
        lhs = naive.p_trim(a)
        rhs = naive.p_add(naive.p_mul(q, b), r)
        assert lhs == rhs


def test_gcd_matches_oracle_and_divides():
    rng = random.Random(0x5EED)
    for _ in range(150):
        a, b = random_poly(rng, 30), random_poly(rng, 30)
        if not naive.p_trim(a) and not naive.p_trim(b):
            continue
        g = _poly_gcd(from_list(a), from_list(b))
        assert to_list(g) == naive.p_gcd(a, b)
        for c in (a, b):
            if naive.p_trim(c):
                assert naive.p_mod(c, to_list(g)) == []


def test_gcd_of_zeros_raises():
    with pytest.raises(ValueError):
        _poly_gcd(0, 0)


def test_gcd_at_census_degrees_finds_a_planted_factor():
    # degrees 1000..6000, as in the census GCDs; c divides both by design
    rng = random.Random(0xC0FAC)
    for _ in range(30):
        c = rng.getrandbits(rng.randrange(1, 501)) | 1 << rng.randrange(1, 501)
        p, q = (rng.getrandbits(rng.randrange(1000, 5500)) for _ in range(2))
        a, b = naive.int_mul(c, p), naive.int_mul(c, q)
        g = _poly_gcd(a, b)
        assert g == naive.int_gcd(a, b)
        assert naive.int_gcd(g, c) == c


def test_gcd_edge_cases():
    rng = random.Random(0xED6E)
    for _ in range(20):
        a, b = (rng.getrandbits(rng.randrange(1, 6000)) | 1 for _ in range(2))
        assert _poly_gcd(a, 0) == a
        assert _poly_gcd(0, b) == b
        assert _poly_gcd(a, a) == a
        assert _poly_gcd(1, b) == _poly_gcd(b, 1) == 1


def test_compose_x_plus_1_matches_oracle():
    # the int-packed oracle behind the x-domain d(n) against the list one
    rng = random.Random(0xACE)
    for _ in range(120):
        a = random_poly(rng, 50)
        got = to_list(naive.int_compose(from_list(a), 0b11))
        assert got == naive.p_compose_x_plus_1(a)


@pytest.mark.parametrize(
    "m, coeffs",
    [
        (1, [1]),
        (2, [0, 1]),
        (3, [1, 0, 1]),
        (4, [0, 0, 0, 1]),
        (5, [1, 0, 1, 0, 1]),  # (x^2+x+1)^2
        (6, [0, 1, 0, 0, 0, 1]),  # x(x+1)^4
    ],
)
def test_fib_poly_small_values(m, coeffs):
    assert naive.p_fib(m) == coeffs
    assert to_list(naive.int_fib_sweep(m)[m]) == coeffs


def test_y_form_doubling_gives_the_fibonacci_polynomials():
    # (A, B) stands for A(y) + x*B(y) with y = x^2 + x; f_0 = 0
    fibs = naive.int_fib_sweep(4098)
    for m in [*range(301), 1000, 2047, 2048, 4097]:
        a0, b0, a1, b1 = _fib_pair_y(m)
        for k, a, b in [(m, a0, b0), (m + 1, a1, b1)]:
            got = naive.int_compose(a, 0b110) ^ (naive.int_compose(b, 0b110) << 1)
            assert got == fibs[k], k


@pytest.mark.parametrize("bad", [0, -3])
def test_nullity_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        nullity(bad)


def test_nullity_small_table():
    # 4x4 and 9x9 have large kernels; powers-of-two-minus-one sides have none
    assert [nullity(n) for n in range(1, 10)] == [0, 0, 0, 4, 2, 0, 0, 0, 8]


def test_nullity_matches_oracle():
    for n in range(1, 24):
        assert nullity(n) == naive.nullity_naive(n), n


def test_halving_identities_match_the_direct_gcd():
    # both parities, so both identities and every depth of the odd loop;
    # the GCD over GF(2)[x^2 + x] makes d of an even side a multiple of 4
    for n, d in nullity_range(1, 4000):
        assert nullity(n) == d, n
        assert n % 2 or d % 4 == 0, n


def test_halving_identities_match_the_direct_gcd_at_large_sides():
    # seeded sides of both parities, plus deep odd loops that end with d > 0:
    # 20479 = 5*2^12 - 1 (12 odd steps, d = 16384), 23039 = 45*2^9 - 1,
    # 18431 = 9*2^11 - 1, 24575 = 3*2^13 - 1
    rng = random.Random(0xD0B1E)
    sides = [2 * rng.randrange(2001, 12501) for _ in range(10)]
    sides += [2 * rng.randrange(2001, 12500) + 1 for _ in range(10)]
    sides += [20479, 23039, 18431, 24575]
    for n in sides:
        assert nullity(n) == nullity_range(n, n)[0][1], n
    assert [nullity(n) for n in sides[-4:]] == [16384, 3070, 4094, 16382]


def test_fast_block_matches_pointwise_nullity_to_6000():
    assert _fast_block(5, 6000) == [(n, nullity(n)) for n in range(5, 6001, 12)]


def test_fast_block_matches_pointwise_nullity_at_every_census_block_start():
    # census blocks start one past each block end, and lo = 1..12 is every
    # residue; each block finds its own first side, so the expected sides
    # within 24 of lo, up to 25000, come from a plain filter
    starts = {hi + 1 for workers in (1, 2, 3) for hi in _block_ends(25000, workers)[:-1]}
    for lo in [*sorted(starts), *range(1, 13)]:
        hi = min(lo + 24, 25000)
        expected = [(n, nullity(n)) for n in range(lo, hi + 1) if n % 12 == 5]
        assert _fast_block(lo, hi) == expected, lo
    assert _fast_block(513, 516) == []  # the block [513, 516] holds no fast side


def test_nullity_range_matches_the_x_domain_oracle():
    # f_{n+1}(x) and f_{n+1}(x+1) taken literally, with no y-form anywhere
    assert [d for _, d in nullity_range(1, 4000)] == naive.int_nullity_range(4000)


def test_fast_and_full_routes_stay_independent(monkeypatch):
    # nullity_range sweeps the recurrence, never doubling; nullity never sweeps
    def gone(*_):
        raise AssertionError("crossed over to the other route")

    expected = [nullity(n) for n in range(1, 200)]
    monkeypatch.setattr(gf2poly, "_fib_pair_y", gone)
    assert [d for _, d in nullity_range(1, 199)] == expected
    monkeypatch.undo()
    monkeypatch.setattr(gf2poly, "nullity_range", gone)
    assert [nullity(n) for n in range(1, 200)] == expected


def test_nullity_refuses_to_double_past_the_cap(monkeypatch):
    doubled = []

    def double(m):
        doubled.append(m)
        raise AssertionError("doubled")

    monkeypatch.setattr(gf2poly, "_fib_pair_y", double)
    cap = gf2poly.DOUBLING_CAP
    with pytest.raises(AssertionError, match="doubled"):
        nullity(2 * cap)  # the cap itself is doubled to
    # one past the cap, an odd side halving to it, and a side far past it
    for n, m in [(2 * cap + 2, cap + 1), (4 * cap + 5, cap + 1), (10**10, 5 * 10**9)]:
        with pytest.raises(ValueError, match=f"doubling to f_{m} passes the doubling cap {cap}"):
            nullity(n)
    assert doubled == [cap]
    assert nullity(2**200 - 1) == 0  # odd sides that halve to 0 never double


def test_nullity_range_agrees_with_pointwise():
    pairs = nullity_range(10, 40)
    assert pairs == [(n, nullity(n)) for n in range(10, 41)]


def test_nullity_range_include_filter():
    pairs = nullity_range(1, 60, include=lambda n: n % 12 == 5)
    assert [n for n, _ in pairs] == [5, 17, 29, 41, 53]
    assert all(d == nullity(n) for n, d in pairs)


def test_nullity_range_rejects_bad_bounds():
    with pytest.raises(ValueError):
        nullity_range(0, 5)
    with pytest.raises(ValueError):
        nullity_range(8, 3)

