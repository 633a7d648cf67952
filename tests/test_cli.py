"""Command-line surface: outputs, exit codes, file round-trips.

Everything but the ``python -m lightsout`` check drives cli.main()
in-process; exit codes come from its return value so argparse's own
SystemExit never escapes.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lightsout import McpCertificate, mcp, read_records_csv, verify_certificate
from lightsout.cli import _build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ALL_ON_5 = "#####\n" * 5
OFF_5 = ".....\n" * 5
CORNER_5 = "#....\n" + ".....\n" * 4


@pytest.fixture
def pattern_file(tmp_path):
    def write(text, name="pattern.txt"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


# -- nullity ----------------------------------------------------------------

def test_nullity_5(capsys):
    assert run(capsys, "nullity", "5") == (0, "2\n", "")


def test_nullity_7(capsys):
    assert run(capsys, "nullity", "7") == (0, "0\n", "")


def test_nullity_zero_is_usage_error(capsys):
    code, out, err = run(capsys, "nullity", "0")
    assert code == 1
    assert "must be >= 1" in err


def test_no_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1 and "error" in err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "subcommand" in out or "usage" in out


# -- kernel -----------------------------------------------------------------

def test_kernel_empty(capsys):
    assert run(capsys, "kernel", "3")[:2] == (0, "(empty kernel)\n")


def test_kernel_5_two_patterns(capsys):
    code, out, _ = run(capsys, "kernel", "5")
    assert code == 0
    blocks = out.split("\n\n")
    assert len(blocks) == 2
    for block in blocks:
        lines = block.strip().split("\n")
        assert len(lines) == 5 and all(len(l) == 5 for l in lines)


def test_kernel_pbm(capsys):
    code, out, _ = run(capsys, "kernel", "5", "--pbm")
    assert code == 0
    assert out.startswith("P1\n5 5\n")
    assert out.count("P1") == 2


# -- solve ------------------------------------------------------------------

def test_solve_all_on_min_is_15_clicks(capsys, pattern_file):
    code, out, _ = run(capsys, "solve", pattern_file(ALL_ON_5), "--min")
    assert code == 0
    assert out.endswith("clicks: 15\n")
    witness_lines = out.splitlines()[:5]
    assert sum(line.count("#") for line in witness_lines) == 15


def test_solve_all_off_is_zero_clicks(capsys, pattern_file):
    code, out, _ = run(capsys, "solve", pattern_file(OFF_5))
    assert code == 0
    assert out == OFF_5 + "clicks: 0\n"


def test_solve_corner_light_unsolvable_exit_2(capsys, pattern_file):
    code, out, _ = run(capsys, "solve", pattern_file(CORNER_5))
    assert code == 2
    assert out == "unsolvable\n"


def test_solve_min_unsolvable_above_nullity_cap_exit_2(capsys, pattern_file):
    # 39x39 has nullity 32, beyond the enumeration cap: unsolvable still wins
    corner = "#" + "." * 38 + "\n" + ("." * 39 + "\n") * 38
    code, out, _ = run(capsys, "solve", "--min", pattern_file(corner))
    assert (code, out) == (2, "unsolvable\n")


def test_solve_without_min_round_trips(capsys, pattern_file):
    code, out, _ = run(capsys, "solve", pattern_file(ALL_ON_5))
    assert code == 0
    assert out.splitlines()[-1].startswith("clicks: ")


def test_solve_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "solve", str(tmp_path / "nope.txt"))
    assert code == 1 and "error" in err


def test_solve_malformed_pattern(capsys, pattern_file):
    code, _, err = run(capsys, "solve", pattern_file("##\n#\n"))
    assert code == 1 and "error" in err


# -- mcp --------------------------------------------------------------------

def test_mcp_brute_4(capsys):
    assert run(capsys, "mcp", "4", "--brute") == (0, "7\n", "")


def test_mcp_workers_has_no_effect_on_brute(capsys):
    expected = (0, "15\n", "")
    assert run(capsys, "mcp", "5", "--brute") == expected
    assert run(capsys, "mcp", "5", "--brute", "--workers", "1") == expected


def test_mcp_certify_k1(capsys):
    code, out, _ = run(capsys, "mcp", "--k", "1", "--certify")
    assert code == 0
    assert out.startswith("15\n")
    cert = McpCertificate.from_json(out[3:])
    assert cert.certified and verify_certificate(cert)


def test_mcp_certify_writes_file(capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "mcp", "--k", "3", "--certify", "--out", str(out_path))
    assert code == 0
    assert out.splitlines()[0] == "199"
    assert f"certificate written to {out_path}" in out
    cert = McpCertificate.from_json(out_path.read_text())
    assert verify_certificate(cert)


def test_mcp_certify_k2_upper_bound_flag(capsys):
    code, out, _ = run(capsys, "mcp", "--k", "2", "--certify")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "81"
    assert lines[1] == "upper bound only (nullity 6)"


def test_mcp_certify_by_side(capsys):
    code, out, _ = run(capsys, "mcp", "17", "--certify")
    assert code == 0 and out.startswith("199\n")


def test_mcp_certify_side_not_6k_minus_1(capsys):
    code, _, err = run(capsys, "mcp", "7", "--certify")
    assert code == 1 and "6k-1" in err


def test_mcp_needs_exactly_one_of_n_and_k(capsys):
    assert run(capsys, "mcp", "5", "--k", "1", "--brute")[0] == 1
    assert run(capsys, "mcp", "--brute")[0] == 1


def test_mcp_brute_refuses_out_before_searching(capsys, tmp_path, monkeypatch):
    def no_search(n):
        raise AssertionError("searched although --out was refused")

    monkeypatch.setattr(mcp, "mcp_bruteforce", no_search)
    out_path = tmp_path / "cert.json"
    for side in ("5", "9"):  # 9 would otherwise be refused for its budget
        assert run(capsys, "mcp", side, "--brute", "--out", str(out_path)) == (
            1, "", "error: --out needs --certify\n")
    assert not out_path.exists()


def test_mcp_needs_a_mode(capsys):
    code, _, err = run(capsys, "mcp", "5")
    assert code == 1 and "required" in err


def test_mcp_brute_over_budget(capsys):
    code, out, _ = run(capsys, "mcp", "7", "--brute")  # empty kernel: no scan
    assert code == 0 and out == "49\n"
    code, _, err = run(capsys, "mcp", "9", "--brute")
    assert code == 1 and "budget" in err


# -- tile and regions ---------------------------------------------------------

def test_tile_grows_a_cover(capsys, pattern_file):
    cover = "#.#.#\n#.#.#\n.....\n#.#.#\n#.#.#\n"
    code, out, _ = run(capsys, "tile", pattern_file(cover), "6", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11 and all(len(l) == 11 for l in lines)


def test_tile_pbm(capsys, pattern_file):
    cover = "#.#.#\n#.#.#\n.....\n#.#.#\n#.#.#\n"
    code, out, _ = run(capsys, "tile", pattern_file(cover), "6", "2", "--pbm")
    assert code == 0 and out.startswith("P1\n11 11\n")


def test_tile_rejects_non_cover(capsys, pattern_file):
    code, _, err = run(capsys, "tile", pattern_file("#....\n" + ".....\n" * 4), "6", "2")
    assert code == 1 and "error" in err


def test_regions_k1(capsys):
    code, out, _ = run(capsys, "regions", "--k", "1")
    assert code == 0
    assert "region 1: 4 cells" in out
    assert "region 4: 5 cells" in out


# sha256 of `regions --k k` stdout, recorded before the regions were read
# from the kernel's cell types
REGIONS_SHA256 = {
    1: "e45102877d3d48967c64e9a34b3b7e42e2e844ca2536be7cf4836a5fd3d2498f",
    3: "170ea11dd5dea578318bc024940963e218d66cfd8818eb681a8b978dce6866bb",
    7: "632b6aaecd85ec6b9454e363bb416977ad06c42a08c25f44fc6591c2da88a5c9",
}


@pytest.mark.parametrize("k", sorted(REGIONS_SHA256))
def test_regions_stdout_is_pinned(capsys, k):
    code, out, _ = run(capsys, "regions", "--k", str(k))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REGIONS_SHA256[k]


def test_regions_k2_fails(capsys):
    code, _, err = run(capsys, "regions", "--k", "2")
    assert code == 1 and "nullity" in err


# -- scan ---------------------------------------------------------------------

def test_scan_100_lists_the_five_sides(capsys):
    code, out, _ = run(capsys, "scan", "100")
    assert code == 0
    assert "nullity-2 sides: 5, 17, 41, 53, 77" in out
    assert "nullity-2 count: 5" in out
    assert "all hold" in out


def test_scan_zero_usage_error(capsys):
    code, _, err = run(capsys, "scan", "0")
    assert code == 1 and "must be >= 1" in err


def test_scan_out_csv(capsys, tmp_path):
    out_path = tmp_path / "census.csv"
    code, out, _ = run(capsys, "scan", "30", "--out", str(out_path))
    assert code == 0
    assert f"records written to {out_path}" in out
    records = read_records_csv(str(out_path))
    assert [r.n for r in records] == list(range(1, 31))


def test_scan_unwritable_out_fails_before_the_scan(capsys, tmp_path):
    start = time.perf_counter()
    code, out, err = run(capsys, "scan", "20000", "--workers", "1",
                         "--out", str(tmp_path / "missing" / "x.csv"))
    assert code == 1 and out == ""
    assert "No such file or directory" in err
    assert time.perf_counter() - start < 1.0


def test_scan_fast_mode(capsys):
    code, out, _ = run(capsys, "scan", "60", "--fast")
    assert code == 0
    assert "nullity-2 sides: 5, 17, 41, 53" in out


def test_scan_fast_census_bytes_are_pinned(capsys, tmp_path, monkeypatch):
    # the benchmark's `census` operation, end to end: stdout and file bytes
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "scan", "25000", "--fast", "--out", "census.csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "10491aaf05d861455373928dc32f34a625ba3de609719c17c0da9d20fb6d6892")
    assert hashlib.sha256((tmp_path / "census.csv").read_bytes()).hexdigest() == (
        "0221ab95ff66e7c0de41955c0c4adfc0860586ba3c1757258ccedab0948e64b6")


def test_scan_stdout_is_deterministic(capsys):
    _, first, _ = run(capsys, "scan", "100")
    _, second, _ = run(capsys, "scan", "100")
    assert first == second


def test_certificate_json_from_cli_matches_library(capsys, tmp_path):
    from lightsout import worst_case_construct

    out_path = tmp_path / "c.json"
    run(capsys, "mcp", "--k", "1", "--certify", "--out", str(out_path))
    assert json.loads(out_path.read_text()) == json.loads(worst_case_construct(1).to_json())


# -- one parser for many calls --------------------------------------------------

@pytest.mark.parametrize("calls", [
    [("nullity", "0"), ("nullity", "5")],
    [("mcp", "5", "--brute"), ("mcp", "--k", "1", "--certify")],
    [("scan", "100", "--workers", "2"), ("scan", "100")],
    [("--help",), ("--help",)],
])
def test_parser_reuse_matches_calls_on_their_own(capsys, calls):
    alone = []
    for argv in calls:
        _build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    _build_parser.cache_clear()
    assert [run(capsys, *argv) for argv in calls] == alone
    info = _build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)


def test_python_m_lightsout():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "lightsout", "nullity", "17"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "2\n", "")
    proc = subprocess.run([sys.executable, "-m", "lightsout", "nullity", "0"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage: lightsout nullity")
