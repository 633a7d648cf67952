"""End-to-end acceptance checks.

One test per criterion, each timed against its runtime budget and ending
in a single printed verdict line (run with -s to see them live). The
conjecture check is report-only: a failing k is surfaced as a warning and
in the printed report, never as a test failure.
"""

import hashlib
import random
import time
import warnings

import pytest

from lightsout import (
    CellSet,
    all_solutions,
    apply_clicks,
    census,
    check_conjecture_2_3k,
    is_even_cover,
    kernel_basis,
    mcp_bruteforce,
    mcp_formula,
    min_clicks,
    nullity,
    scan_range,
    tile_cover,
    worst_case_construct,
)
from lightsout.scan import write_records_csv


def report(num, label, elapsed, budget):
    assert elapsed < budget, f"criterion {num}: {elapsed:.1f}s blew the {budget}s budget"
    print(f"[criterion {num:02d}] PASS {label} ({elapsed:.2f}s, budget {budget:.0f}s)")


def test_criterion_01_nullity_agrees_with_kernel_dimension():
    t0 = time.monotonic()
    for n in range(1, 65):
        assert nullity(n) == len(kernel_basis(n)), f"disagreement at n={n}"
    report(1, "polynomial nullity = light-chasing kernel dimension, n=1..64",
           time.monotonic() - t0, 30)


def test_criterion_02_worst_case_5x5_is_15_by_exhaustion():
    t0 = time.monotonic()
    value, worst = mcp_bruteforce(5)
    assert value == 15
    assert min_clicks(worst)[0] == 15
    report(2, "5x5 worst case = 15 over all 2^23 cosets",
           time.monotonic() - t0, 60)


def test_criterion_03_certificates_k1_and_k3():
    t0 = time.monotonic()
    for k, expect in ((1, 15), (3, 199)):
        cert = worst_case_construct(k)
        assert cert.claimed_min == expect
        assert cert.certified
        count, _ = min_clicks(cert.worst_config)
        assert count == expect, f"k={k}: min_clicks found {count}, not {expect}"
    report(3, "constructed certificates: 15 (5x5) and 199 (17x17), both attained",
           time.monotonic() - t0, 10)


def test_criterion_04_formula_table():
    t0 = time.monotonic()
    got = [mcp_formula(k) for k in (1, 3, 7, 9, 13)]
    assert got == [15, 199, 1191, 1999, 4239]
    report(4, "26k^2-12k+1 table at k in {1,3,7,9,13}", time.monotonic() - t0, 5)


def test_criterion_05_nullity_2_sides_below_100():
    t0 = time.monotonic()
    records = scan_range(1, 100)
    twos = {r.n for r in records if r.nullity == 2}
    assert twos == {5, 17, 41, 53, 77}
    report(5, "nullity-2 sides under 100 = {5, 17, 41, 53, 77}",
           time.monotonic() - t0, 5)


@pytest.fixture(scope="module")
def census_to_25000():
    t0 = time.monotonic()
    fast_records, fast_report = census(25000, fast=True)
    fast_elapsed = time.monotonic() - t0
    t0 = time.monotonic()
    full_records, full_report = census(25000)
    full_elapsed = time.monotonic() - t0
    return {
        "fast": (fast_records, fast_report, fast_elapsed),
        "full": (full_records, full_report, full_elapsed),
    }


def test_criterion_06_census_to_25000_finds_1242(census_to_25000):
    fast_records, _, fast_elapsed = census_to_25000["fast"]
    full_records, _, full_elapsed = census_to_25000["full"]
    fast_twos = {r.n for r in fast_records if r.nullity == 2}
    full_twos = {r.n for r in full_records if r.nullity == 2}
    assert len(fast_twos) == 1242, f"fast census found {len(fast_twos)}"
    assert full_twos == fast_twos, "full scan disagrees with the fast residue scan"
    assert fast_elapsed < 1800
    assert full_elapsed < 14400
    report(6, f"census to 25000: 1242 nullity-2 sides, full mode agrees "
              f"(fast {fast_elapsed:.0f}s, full {full_elapsed:.0f}s)",
           fast_elapsed + full_elapsed, 1800 + 14400)


def test_criterion_06_fast_records_equal_the_full_records(census_to_25000):
    # every value of the fast census, not only its d = 2 sides
    fast_records, _, _ = census_to_25000["fast"]
    full_records, _, _ = census_to_25000["full"]
    full_by_side = {r.n: r for r in full_records}
    assert [r.n for r in fast_records] == list(range(5, 25001, 12))
    for rec in fast_records:
        assert rec == full_by_side[rec.n]


def test_full_census_csv_bytes_are_pinned(census_to_25000, tmp_path):
    # `lightsout scan 25000 --out census.csv`; the digest was taken from
    # the x-domain GCD route
    full_records, _, _ = census_to_25000["full"]
    path = tmp_path / "census.csv"
    write_records_csv(full_records, str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "2a72c115b9bf02c19f0a2c770d78f2cb6be36aff29e4b5bdc805b9794c6940fb"


def test_criterion_07_congruences_hold_in_census(census_to_25000):
    t0 = time.monotonic()
    _, fast_report, _ = census_to_25000["fast"]
    full_records, full_report, _ = census_to_25000["full"]
    assert fast_report.ok
    assert full_report.ok, "; ".join(full_report.summary_lines())
    assert full_report.checked == 1242
    # belt and braces: re-derive the residues from the raw records
    for rec in full_records:
        if rec.nullity == 2:
            assert rec.n % 2 == 1 and rec.n % 6 == 5 and rec.n % 12 == 5
    report(7, "all 1242 nullity-2 sides are odd, 5 mod 6, and 5 mod 12",
           time.monotonic() - t0, 60)


def test_criterion_08_conjecture_2_3k_report_only():
    t0 = time.monotonic()
    conjecture = check_conjecture_2_3k(8)
    for line in conjecture.summary_lines():
        print(line)
    failures = [e for e in conjecture.entries if not e.holds]
    for e in failures:
        warnings.warn(
            f"FINDING: d(2*3^k - 1) = 2 fails at k={e.k} "
            f"(side {e.n} has nullity {e.nullity})"
        )
    verdict = "holds for k=1..8" if not failures else (
        f"FAILS at k in {sorted(e.k for e in failures)} (reported, not a test failure)"
    )
    report(8, f"conjecture d(2*3^k-1)=2: {verdict}", time.monotonic() - t0, 120)


def test_criterion_09_tiling_soundness_and_nullity_growth():
    t0 = time.monotonic()
    checked = 0
    for n in (5, 6):  # tiles 4x4 and 5x5 covers
        for q in kernel_basis(n - 1).span_nonzero():
            for k in range(1, 6):
                assert is_even_cover(tile_cover(q, n, k))
                checked += 1
    assert nullity(9) >= 4    # 4x4 tiled twice
    assert nullity(11) >= 2   # 5x5 tiled twice
    assert nullity(17) >= 2   # 5x5 tiled three times
    report(9, f"{checked} tiled covers all pass parity; nullity growth spot-checks",
           time.monotonic() - t0, 10)


def test_criterion_10_solution_coset_structure():
    t0 = time.monotonic()
    rng = random.Random(0x7E01)
    for n in (4, 5, 8):
        size = n * n
        span = [CellSet.empty(n)] + kernel_basis(n).span_nonzero()
        for _ in range(1000):
            v1 = CellSet(n, rng.getrandbits(size))
            # same image -> the difference is an even parity cover
            v2 = v1 ^ rng.choice(span)
            assert apply_clicks(v1) == apply_clicks(v2)
            assert is_even_cover(v1 ^ v2)
            # and for an arbitrary pair the equivalence holds both ways
            v3 = CellSet(n, rng.getrandbits(size))
            assert is_even_cover(v1 ^ v3) == (apply_clicks(v1) == apply_clicks(v3))
    report(10, "1000 trials each on 4x4/5x5/8x8: equal images <=> cover difference",
           time.monotonic() - t0, 30)


def test_criterion_11_nullity_0_worst_cases():
    t0 = time.monotonic()
    for n in (1, 2, 3):
        value, _ = mcp_bruteforce(n)
        assert value == n * n
    # 7x7 is beyond the exhaustive budget, but with an empty kernel the
    # all-clicks image has exactly one solution: all 49 clicks
    assert nullity(7) == 0
    config = apply_clicks(CellSet.full(7))
    sols = all_solutions(config)
    assert sols == [CellSet.full(7)]
    assert min_clicks(config) == (49, CellSet.full(7))
    report(11, "empty-kernel worst cases: n^2 for n=1,2,3; 49 on 7x7 by uniqueness",
           time.monotonic() - t0, 10)
