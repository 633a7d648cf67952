"""Polynomial layer vs. the list-based oracle in naive.py."""

import random

import pytest

from lightsout.gf2poly import (
    fib_poly,
    nullity,
    nullity_range,
    poly_compose_x_plus_1,
    poly_gcd,
    poly_mod,
)

import naive


def from_list(coeffs):
    return sum(c << i for i, c in enumerate(coeffs))


def to_list(p):
    return [(p >> i) & 1 for i in range(p.bit_length())]


def random_poly(rng, max_deg):
    return [rng.randrange(2) for _ in range(rng.randrange(max_deg + 1))]


def test_mod_matches_oracle():
    rng = random.Random(0xCAFE)
    checked = 0
    while checked < 200:
        a, b = random_poly(rng, 40), random_poly(rng, 20)
        if not naive.p_trim(b):
            continue
        checked += 1
        got = to_list(poly_mod(from_list(a), from_list(b)))
        assert got == naive.p_mod(a, b)


def test_mod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        poly_mod(from_list([1, 1]), 0)


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
        g = poly_gcd(from_list(a), from_list(b))
        assert to_list(g) == naive.p_gcd(a, b)
        for c in (a, b):
            if naive.p_trim(c):
                assert naive.p_mod(c, to_list(g)) == []


def test_gcd_of_zeros_raises():
    with pytest.raises(ValueError):
        poly_gcd(0, 0)


def test_compose_x_plus_1_matches_oracle():
    rng = random.Random(0xACE)
    for _ in range(120):
        a = random_poly(rng, 50)
        got = to_list(poly_compose_x_plus_1(from_list(a)))
        assert got == naive.p_compose_x_plus_1(a)


def test_compose_x_plus_1_is_an_involution():
    # substituting x+1 twice gives back x
    rng = random.Random(42)
    for _ in range(60):
        p = from_list(random_poly(rng, 200))
        assert poly_compose_x_plus_1(poly_compose_x_plus_1(p)) == p


def test_compose_crosses_divide_and_conquer_cutoff():
    # degrees far above the internal cutoff exercise the recursive split
    rng = random.Random(99)
    coeffs = [rng.randrange(2) for _ in range(800)] + [1]
    got = to_list(poly_compose_x_plus_1(from_list(coeffs)))
    assert got == naive.p_compose_x_plus_1(coeffs)


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
    assert to_list(fib_poly(m)) == coeffs
    assert naive.p_fib(m) == coeffs


def test_fib_poly_recurrence_holds():
    # fib_poly doubles; the sweep multiplies by x (a shift) and adds (XOR)
    prev, cur = 0, 1  # f_0, f_1
    for m in range(1, 2001):
        assert fib_poly(m) == cur, m
        prev, cur = cur, (cur << 1) ^ prev


def test_fib_poly_rejects_nonpositive():
    with pytest.raises(ValueError):
        fib_poly(0)


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
    # both parities, so both identities and every depth of the odd loop
    for n, d in nullity_range(1, 4000):
        assert nullity(n) == d, n


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

