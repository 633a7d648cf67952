"""Census machinery: the block census, direct sweeps, reports, persistence."""

import os
import signal
from itertools import starmap

import pytest

from lightsout import _forkmap, gf2poly, scan
from lightsout.cli import main
from lightsout.gf2poly import nullity
from lightsout.scan import (
    ScanRecord,
    census,
    check_conjecture_2_3k,
    read_records_csv,
    scan_range,
    _verify_congruences,
    write_records_csv,
)


def test_scan_range_basic():
    records = scan_range(1, 100)
    assert len(records) == 100
    assert records == sorted(records)
    assert [r.n for r in records if r.nullity == 2] == [5, 17, 41, 53, 77]


def test_scan_range_agrees_with_pointwise_nullity():
    for rec in scan_range(30, 70):
        assert rec.nullity == nullity(rec.n)


def test_scan_range_validation():
    with pytest.raises(ValueError):
        scan_range(0, 10)
    with pytest.raises(ValueError):
        scan_range(10, 5)
    with pytest.raises(ValueError):
        census(0)


def test_census_blocks_equal_one_sweep():
    # one worker's census blocks start at 1, 875, 1001 and 1097; the two sweeps are cut at 300
    assert census(1100, workers=1)[0] == scan_range(1, 300) + scan_range(301, 1100)


@pytest.mark.parametrize("workers", [1, 2, 3, 64])
@pytest.mark.parametrize("n_max", [1, 95, 96, 97, 1100, 25000])
def test_block_ends_cover_the_sides_in_guided_shares(n_max, workers):
    ends = scan._block_ends(n_max, workers)
    assert ends == sorted(set(ends)) and ends[-1] == n_max  # 1..n_max in order, no gaps
    for lo, hi in zip([0, *ends], ends[:-1]):  # every block but the last; lo is the side before it
        assert hi - lo >= scan.MIN_BLOCK
        # modelled cost of sides lo+1..hi is hi^3 - lo^3: a 1/(2*workers) share or a minimum block
        share = (hi**3 - lo**3) * 2 * workers >= n_max**3 - lo**3
        assert share or hi - lo == scan.MIN_BLOCK, (lo, hi)


def test_census_records_do_not_depend_on_the_workers(deadline):
    # blocks start off any fixed grid, e.g. 1891 and 2279 for two workers at
    # 3000, so the full mode's sweep states are handed out at new starts
    for n_max in (1100, 3000):
        full = scan_range(1, n_max)
        for workers in (1, 2, 3):
            assert census(n_max, workers=workers)[0] == full, (n_max, workers)
            assert census(n_max, fast=True, workers=workers)[0] == [
                r for r in full if r.n % 12 == 5], (n_max, workers)
    serial = census(25000, fast=True, workers=1)
    for workers in (2, 3):
        assert census(25000, fast=True, workers=workers) == serial, workers


def test_census_residue_filter():
    records, _ = census(200, fast=True)
    assert [r.n for r in records] == list(range(5, 201, 12))
    full = {r.n: r.nullity for r in scan_range(1, 200)}
    assert all(full[r.n] == r.nullity for r in records)


def test_fast_scan_equals_the_filtered_full_scan_at_every_edge():
    # each n_max lays out its own blocks, so their starts take many residues
    # mod 12 and exercise _fast_block's first-side offset
    full = scan_range(1, 1100)
    for n_max in [*range(1, 61), 511, 512, 513, 1024, 1025, 1100]:
        expected = [r for r in full if r.n <= n_max and r.n % 12 == 5]
        assert census(n_max, fast=True, workers=1)[0] == expected, n_max


def test_fast_scan_records_match_the_full_scan_to_6000():
    # every record's nullity, not only which sides have d = 2
    expected = [r for r in scan_range(1, 6000) if r.n % 12 == 5]
    for workers in (1, 2):
        assert census(6000, fast=True, workers=workers)[0] == expected


def test_census_routes_stay_independent(monkeypatch):
    # fast blocks double once and step the recurrence, never nullity_range;
    # full blocks resume one sweep from n = 1 and never double
    def gone(*_):
        raise AssertionError("crossed over to the other route")

    full = scan_range(1, 1100)
    fast = [r for r in full if r.n % 12 == 5]
    monkeypatch.setattr(scan, "nullity_range", gone)
    assert census(1100, fast=True, workers=1)[0] == fast
    monkeypatch.undo()
    monkeypatch.setattr(gf2poly, "_fib_pair_y", gone)
    assert census(1100, workers=1)[0] == full


def test_census_progress_after_every_block():
    for workers in (1, 2):
        seen = []
        census(1100, workers=workers,
               progress=lambda done, total: seen.append((done, total)))
        assert seen == [(hi, 1100) for hi in scan._block_ends(1100, workers)]
        assert seen == sorted(seen) and seen[-1] == (1100, 1100)


@pytest.mark.parametrize("workers", [0, -1])
def test_census_refuses_fewer_than_one_worker(workers, deadline, monkeypatch):
    def no_block(*args):
        raise AssertionError("a block ran before the worker count was checked")

    monkeypatch.setattr(scan, "_sweep_block", no_block)
    monkeypatch.setattr(scan, "_fast_block", no_block)
    for fast in (False, True):
        with pytest.raises(ValueError, match="need workers >= 1"):
            census(1100, fast=fast, workers=workers)


def test_census_refuses_more_workers_than_its_cap(monkeypatch):
    def started(*args):
        raise AssertionError("the census started before the worker count was checked")

    for name in ("_block_ends", "_sweep_block", "_fast_block"):
        monkeypatch.setattr(scan, name, started)
    monkeypatch.setattr(os, "fork", started)
    monkeypatch.setattr(_forkmap, "forked_map", started)
    cap = scan.MAX_WORKERS
    for fast in (False, True):
        with pytest.raises(ValueError, match=f"workers {cap + 1} exceeds the worker cap {cap}"):
            census(25000, fast=fast, workers=cap + 1)


def test_census_refuses_to_double_past_the_cap(monkeypatch):
    def started(*args):
        raise AssertionError("the census started before n_max was checked")

    for name in ("_block_ends", "_sweep_block", "_fast_block"):
        monkeypatch.setattr(scan, name, started)
    monkeypatch.setattr(os, "fork", started)
    cap = gf2poly.DOUBLING_CAP
    for fast in (False, True):
        with pytest.raises(ValueError, match=f"n_max {4 * cap + 5} doubles to f_{cap + 1}, "
                                             f"past the doubling cap {cap}"):
            census(4 * cap + 5, fast=fast, workers=2)
        with pytest.raises(AssertionError, match="the census started"):
            census(4 * cap + 4, fast=fast, workers=2)  # its last fast block doubles to the cap


def test_census_clamps_its_default_workers_to_the_cap(monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4 * scan.MAX_WORKERS)))
    assert len(scan._block_ends(10000, scan.MAX_WORKERS)) > scan.MAX_WORKERS
    census(10000, fast=True)
    assert pool_sizes == [scan.MAX_WORKERS]


def test_census_parallel_matches_serial():
    serial = census(1300, workers=1)  # four blocks in process, six forked
    parallel = census(1300, workers=2)
    assert serial == parallel


def test_scan_pool_is_no_larger_than_its_blocks(pool_sizes):
    full = scan_range(1, 1100)
    assert census(1100, workers=64)[0] == full
    assert census(1100, fast=True, workers=64)[0] == [r for r in full if r.n % 12 == 5]
    blocks = len(scan._block_ends(1100, 64))
    assert pool_sizes == [min(64, blocks)] * 2 == [11, 11]
    census(scan.MIN_BLOCK, workers=64)  # one block runs in-process
    assert pool_sizes == [11, 11]


def test_census_defaults_to_the_cpus_it_may_run_on(monkeypatch, pool_sizes):
    full = scan_range(1, 1100)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert census(1100)[0] == full  # one allowed CPU: nothing forked
    assert pool_sizes == []
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert census(1100)[0] == full
    assert pool_sizes == [3]


def test_census_without_fork_runs_in_process(monkeypatch, pool_sizes):
    monkeypatch.delattr(os, "fork")
    assert census(1100, workers=2)[0] == scan_range(1, 1100)
    assert pool_sizes == []


@pytest.fixture
def deadline():
    """Fail a test still running after 60 s, as a hung worker pipe would, instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError("still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)  # a forked child inherits no alarm
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_block_that_raises_in_a_worker_raises_and_leaves_no_child(monkeypatch, capfd, deadline):
    second = scan._block_ends(1100, 2)[0] + 1

    def fails_on_the_second(lo, hi):
        if lo == second:
            raise ValueError("no such block")
        return gf2poly._fast_block(lo, hi)

    monkeypatch.setattr(scan, "_fast_block", fails_on_the_second)
    with pytest.raises(RuntimeError, match="block 1$"):
        census(1100, fast=True, workers=2)
    _assert_no_child_left()
    assert "ValueError: no such block" in capfd.readouterr().err


def test_a_progress_callback_that_raises_leaves_no_child(deadline):
    class Stop(Exception):
        pass

    def stop(done, total):
        raise Stop

    with pytest.raises(Stop):
        census(1100, workers=2, progress=stop)  # two blocks still held by workers
    _assert_no_child_left()


def test_forked_map_equals_map_past_a_full_pipe(deadline):
    # 20000 four-byte indices overfill a 64 KiB pipe, and each 100 kB
    # result overfills one too, so neither side may wait on the other
    tasks = [(i,) for i in range(20000)]
    assert list(_forkmap.forked_map(abs, tasks, 2)) == list(starmap(abs, tasks))
    big = [(100_000,)] * 3
    assert list(_forkmap.forked_map(bytes, big, 2)) == [bytes(100_000)] * 3
    _assert_no_child_left()


def _killed_at_5(i):
    if i == 5:
        os.kill(os.getpid(), signal.SIGKILL)
    return i


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_worker_killed_on_a_block_raises_and_leaves_no_child(workers, deadline):
    with pytest.raises(RuntimeError, match="block 5"):
        list(_forkmap.forked_map(_killed_at_5, [(i,) for i in range(10)], workers))
    _assert_no_child_left()


def test_forked_map_passes_one_token_among_more_workers_than_cores(deadline):
    # five children, likely more than there are cores, pass one token 5000 times;
    # a lost token would hang until the deadline
    tasks = [(i,) for i in range(-5000, 0)]
    assert list(_forkmap.forked_map(abs, tasks, 5)) == list(starmap(abs, tasks))
    _assert_no_child_left()


def test_forked_map_with_more_workers_than_tasks_or_no_tasks(deadline):
    assert list(_forkmap.forked_map(abs, [(-1,)], 4)) == [1]
    assert list(_forkmap.forked_map(abs, [], 2)) == []
    _assert_no_child_left()


def test_census_fast_agrees_with_full_under_500():
    full, full_report = census(500)
    fast, fast_report = census(500, fast=True)
    twos_full = {r.n for r in full if r.nullity == 2}
    twos_fast = {r.n for r in fast if r.nullity == 2}
    assert twos_full == twos_fast
    assert full_report.ok and fast_report.ok
    assert full_report.checked == fast_report.checked == len(twos_full)


def test_census_writes_sorted_csv(tmp_path, capsys):
    # the census itself writes nothing; `lightsout scan --out` does
    out = tmp_path / "census.csv"
    assert main(["scan", "120", "--out", str(out)]) == 0
    capsys.readouterr()
    records, _ = census(120)
    assert read_records_csv(str(out)) == records == sorted(records)
    assert out.read_text().startswith("n,nullity\n")


def test_census_progress_reaches_total():
    calls = []
    census(50, progress=lambda done, total: calls.append((done, total)))
    assert calls[-1] == (50, 50)
    assert all(total == 50 for _, total in calls)


# -- reports -------------------------------------------------------------------

def test_congruence_report_clean():
    report = _verify_congruences([ScanRecord(5, 2), ScanRecord(6, 0), ScanRecord(17, 2)])
    assert report.ok
    assert report.checked == 2
    assert any("all hold" in line for line in report.summary_lines())


def test_congruence_report_flags_violations():
    # fabricated nullity-2 records: n=7 is odd but 1 mod 6, n=4 is even;
    # neither is 5 mod 12
    report = _verify_congruences([ScanRecord(7, 2), ScanRecord(4, 2)])
    assert not report.ok
    assert report.checked == 2
    assert report.violations == (ScanRecord(7, 2), ScanRecord(4, 2))
    assert report.summary_lines() == [
        "nullity-2 sides checked: 2",
        "VIOLATION: n=7 (nullity 2) is not 5 mod 12",
        "VIOLATION: n=4 (nullity 2) is not 5 mod 12",
    ]


def test_congruences_ignore_other_nullities():
    report = _verify_congruences([ScanRecord(4, 4), ScanRecord(9, 8)])
    assert report.ok and report.checked == 0


def test_conjecture_check_small():
    report = check_conjecture_2_3k(4)
    assert [e.n for e in report.entries] == [5, 17, 53, 161]
    assert report.all_hold
    assert all(e.nullity == 2 for e in report.entries)


def test_conjecture_check_validation():
    with pytest.raises(ValueError):
        check_conjecture_2_3k(0)


# -- persistence ------------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    path = tmp_path / "r.csv"
    records = [ScanRecord(1, 0), ScanRecord(5, 2), ScanRecord(9, 8)]
    write_records_csv(records, str(path))
    assert read_records_csv(str(path)) == records


def test_csv_reader_skips_header_only(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("n,nullity\n")
    assert read_records_csv(str(path)) == []

