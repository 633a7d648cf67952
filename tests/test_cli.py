"""Command-line surface: outputs, exit codes, file round-trips.

Everything but the ``python -m lightsout`` checks drives cli.main()
in-process; exit codes come from its return value, usage errors and help
included.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lightsout import (McpCertificate, cli, covers, gf2poly, gridmap, mcp, read_records_csv, scan,
                       verify_certificate)
from lightsout.cli import main


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


@pytest.mark.parametrize("out", ["", "missing/x.json"], ids=["empty", "missing-dir"])
def test_mcp_certify_unusable_out_fails_before_construction(capsys, tmp_path, monkeypatch, out):
    # like `scan --out`: the file is created first, so nothing reaches stdout
    def no_construct(k):
        raise AssertionError("constructed although --out is unusable")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(mcp, "worst_case_construct", no_construct)
    code, stdout, err = run(capsys, "mcp", "--k", "1", "--certify", "--out", out)
    assert code == 1 and stdout == ""
    assert "No such file or directory" in err


def test_mcp_needs_a_mode(capsys):
    code, _, err = run(capsys, "mcp", "5")
    assert code == 1 and "required" in err


def test_mcp_brute_over_budget(capsys):
    code, out, _ = run(capsys, "mcp", "7", "--brute")  # empty kernel: no scan
    assert code == 0 and out == "49\n"
    code, _, err = run(capsys, "mcp", "9", "--brute")
    assert code == 1 and "budget" in err


def test_mcp_brute_on_an_empty_kernel_builds_no_image(capsys, monkeypatch):
    # d(20001) = 0: the answer is n^2, without an n^2-bit image of the full board
    def no_image(clicks):
        raise AssertionError(f"built the {clicks.n}x{clicks.n} image to print n^2")

    monkeypatch.setattr(mcp, "apply_clicks", no_image)
    monkeypatch.setattr(gridmap, "apply_clicks", no_image)
    assert run(capsys, "mcp", "20001", "--brute") == (0, "400040001\n", "")


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


def test_scan_refuses_workers_above_the_cap_before_forking(capsys, monkeypatch):
    def fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(os, "fork", fork)
    cap = scan.MAX_WORKERS
    code, out, err = run(capsys, "scan", "25000", "--workers", str(cap + 1))
    assert (code, out) == (1, "")
    assert err == f"error: workers {cap + 1} exceeds the worker cap {cap}\n"


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


# -- verify -------------------------------------------------------------------------

@pytest.fixture
def cert_k3(capsys, tmp_path):
    path = tmp_path / "c3.json"
    assert run(capsys, "mcp", "--k", "3", "--certify", "--out", str(path))[0] == 0
    return path


def test_verify_accepts_a_fresh_certificate(capsys, cert_k3):
    assert run(capsys, "verify", str(cert_k3)) == (0, "verified\n", "")


@pytest.mark.parametrize("edit", ["claimed_min", "witness"])
def test_verify_rejects_an_edited_certificate(capsys, cert_k3, edit):
    doc = json.loads(cert_k3.read_text())
    if edit == "claimed_min":
        doc["claimed_min"] -= 1
    else:  # a foreign witness: a click set of the right size that does not click the configuration
        doc["witness"] = doc["worst_config"]
    cert_k3.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(cert_k3))
    assert (code, out) == (1, "")
    assert err == f"error: certificate {cert_k3} does not verify\n"


def test_verify_rejects_broken_json_and_missing_files(capsys, cert_k3, tmp_path):
    cert_k3.write_text(cert_k3.read_text()[:-20])
    code, out, err = run(capsys, "verify", str(cert_k3))
    assert (code, out) == (1, "") and err.startswith("error: ")
    cert_k3.write_text("[" * 5000)  # past the decoder's recursion limit: one line, no traceback
    assert run(capsys, "verify", str(cert_k3)) == (1, "", "error: certificate JSON nests too deeply\n")
    code, out, err = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert (code, out) == (1, "") and "No such file" in err


# -- the side cap -------------------------------------------------------------------

@pytest.fixture
def nothing_built(monkeypatch):
    """Every library call that would build a grid raises instead."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"a grid was built past the cap: {args}")

    for module, name in [(gridmap, "kernel_basis"), (gridmap, "parse_pattern"), (mcp, "parse_pattern"),
                         (gridmap, "solve_particular"), (gridmap, "min_clicks"),
                         (covers, "tile_cover"), (covers, "region_partition"),
                         (mcp, "worst_case_construct"), (mcp, "verify_certificate")]:
        monkeypatch.setattr(module, name, refuse)


BIG = cli.SIDE_CAP + 1
CAPPED = [
    ["kernel", str(BIG)],
    ["kernel", "--pbm", str(BIG)],
    ["regions", "--k", str(BIG // 6 + 1)],
    ["mcp", "--k", str(BIG // 6 + 1), "--certify"],
    ["mcp", str(6 * (BIG // 6 + 1) - 1), "--certify"],
    ["tile", "cover.txt", "5", str(BIG // 5 + 1)],
]


@pytest.mark.parametrize("argv", CAPPED, ids=" ".join)
def test_side_cap_refuses_before_building(capsys, nothing_built, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and f"exceeds the side cap {cli.SIDE_CAP}" in err


@pytest.mark.parametrize("flags", [[], ["--min"]])
def test_side_cap_refuses_a_wide_pattern_by_its_first_line(capsys, nothing_built, pattern_file, flags):
    path = pattern_file("." * BIG + "\n")  # one line is enough to refuse
    assert run(capsys, "solve", *flags, path) == (
        1, "", f"error: pattern side {BIG} exceeds the side cap {cli.SIDE_CAP}\n")
    path = pattern_file("." * (BIG - 1) + "\n.\n")  # at the cap the whole file is parsed
    with pytest.raises(AssertionError, match="a grid was built"):
        run(capsys, "solve", *flags, path)


def test_side_cap_refuses_a_wide_certificate_before_checking_it(capsys, nothing_built, tmp_path):
    path = tmp_path / "c173.json"  # the side of worst_case_construct(173), written by hand
    path.write_text(json.dumps({"k": 173, "n": 1037, "nullity": 2, "claimed_min": 1,
                                "worst_config": None, "witness": None}))
    assert run(capsys, "verify", str(path)) == (
        1, "", f"error: side 1037 exceeds the side cap {cli.SIDE_CAP}\n")


def test_side_cap_refuses_a_wide_certificate_before_parsing_its_patterns(capsys, nothing_built,
                                                                         tmp_path):
    path = tmp_path / "c500.json"  # the side of worst_case_construct(500): two 9 MB patterns
    rows = ("." * 2999 + "\n") * 2999
    path.write_text(json.dumps({"k": 500, "n": 2999, "nullity": 2, "claimed_min": 1,
                                "worst_config": rows, "witness": rows}))
    assert run(capsys, "verify", str(path)) == (
        1, "", f"error: certificate {path} is longer than one of side {cli.SIDE_CAP}\n")


@pytest.mark.parametrize("argv", [["solve", "FILE"], ["solve", "--min", "FILE"], ["tile", "FILE", "5", "1"]],
                         ids=" ".join)
def test_a_pattern_file_is_read_no_further_than_its_first_line_allows(capsys, monkeypatch,
                                                                      pattern_file, argv):
    handed = []

    def parse(text):
        handed.append(len(text))
        raise ValueError("stop")

    monkeypatch.setattr(gridmap, "parse_pattern", parse)
    for first_line, n in [("#", 1), ("....", 4), (".....", 5), ("." * cli.SIDE_CAP, cli.SIDE_CAP)]:
        path = pattern_file(first_line + "\n" + "#" * (n * n + 100_000))
        assert run(capsys, *(path if arg == "FILE" else arg for arg in argv)) == (1, "", "error: stop\n")
        assert handed.pop() == n * (n + 1) + 1


def test_verify_reads_no_more_than_a_certificate_of_the_cap_holds(capsys, monkeypatch, cert_k3):
    full = gridmap.CellSet.full(cli.SIDE_CAP)
    widest = McpCertificate(k=171, n=cli.SIDE_CAP, nullity=0, claimed_min=0,
                            worst_config=full, witness=full)
    assert len(widest.to_json()) <= cli._CERT_CHARS
    text = cert_k3.read_text()
    cert_k3.write_text(text + " " * (cli._CERT_CHARS - len(text)))  # at the limit: read and checked
    assert run(capsys, "verify", str(cert_k3)) == (0, "verified\n", "")

    def refuse(text):
        raise AssertionError(f"{len(text)} characters decoded")

    monkeypatch.setattr(McpCertificate, "from_json", refuse)
    cert_k3.write_text(text + " " * (cli._CERT_CHARS + 1 - len(text)))
    assert run(capsys, "verify", str(cert_k3)) == (
        1, "", f"error: certificate {cert_k3} is longer than one of side {cli.SIDE_CAP}\n")


def test_side_cap_admits_the_cap_itself(capsys, monkeypatch):
    monkeypatch.setattr(gridmap, "kernel_basis", lambda n: ())
    assert run(capsys, "kernel", str(cli.SIDE_CAP)) == (0, "(empty kernel)\n", "")


def test_side_cap_spares_the_commands_that_build_no_grid(capsys, nothing_built):
    assert run(capsys, "nullity", "20001")[:2] == (0, "0\n")
    assert run(capsys, "mcp", "20001", "--brute") == (0, "400040001\n", "")


@pytest.mark.parametrize("argv, m", [(["nullity", "10000000000"], 5 * 10**9),
                                     (["nullity", "1000000000"], 5 * 10**8),
                                     (["mcp", "10000000000", "--brute"], 5 * 10**9)], ids=str)
def test_doubling_cap_refuses_before_doubling(capsys, monkeypatch, argv, m):
    def double(*args):
        raise AssertionError("doubled past the cap")

    monkeypatch.setattr(gf2poly, "_fib_pair_y", double)
    assert run(capsys, *argv) == (
        1, "", f"error: doubling to f_{m} passes the doubling cap {gf2poly.DOUBLING_CAP}\n")


@pytest.mark.parametrize("flags", [["--fast"], []])
def test_doubling_cap_refuses_a_scan_before_any_block_or_fork(capsys, monkeypatch, flags):
    def started(*args):
        raise AssertionError("the census started")

    monkeypatch.setattr(os, "fork", started)
    monkeypatch.setattr(scan, "_block_ends", started)
    cap = gf2poly.DOUBLING_CAP
    assert run(capsys, "scan", "10000000000", *flags) == (
        1, "", f"error: n_max 10000000000 doubles to f_2499999999, past the doubling cap {cap}\n")


# -- the grammar ------------------------------------------------------------------

# argv, exit code, stdout, and the last line of stderr; every usage error
# prints nothing to stdout and a usage line first on stderr
GRAMMAR = [
    (["mcp", "--k", "3", "--cert"], 0, None, None),  # unique prefixes, as argparse allows
    (["mcp", "5", "--bru", "--work", "1"], 0, "15\n", None),
    (["mcp", "5", "--brute", "--workers", "1"], 0, "15\n", None),  # the benchmark's traced passes
    (["mcp", "5", "--brute", "--workers=1"], 0, "15\n", None),
    (["nullity", "--", "5"], 0, "2\n", None),
    (["regions", "--k=1"], 0, None, None),
    (["kernel", "-3"], 1, "", "lightsout kernel: error: argument n: must be >= 1, got -3"),
    (["nullity", "x"], 1, "", "lightsout nullity: error: argument n: not an integer: 'x'"),
    (["mcp", "--k", "0", "--certify"], 1, "", "lightsout mcp: error: argument --k: must be >= 1, got 0"),
    (["scan", "30", "--out"], 1, "", "lightsout scan: error: argument --out: expected one argument"),
    (["nullity", "5", "6"], 1, "", "lightsout nullity: error: unrecognized arguments: 6"),
    (["solve", "--bogus", "x"], 1, "", "lightsout solve: error: unrecognized arguments: --bogus"),
    (["-x", "nullity", "5"], 1, "", "lightsout nullity: error: unrecognized arguments: -x"),
    (["scan", "30", "--", "--fast"], 1, "", "lightsout scan: error: unrecognized arguments: --fast"),
    (["bogus"], 1, "", "lightsout: error: argument subcommand: invalid choice: 'bogus' (choose from "
                       "'nullity', 'kernel', 'solve', 'mcp', 'tile', 'regions', 'scan', "
                       "'verify')"),
    ([], 1, "", "lightsout: error: the following arguments are required: subcommand"),
    (["tile", "cover.txt"], 1, "", "lightsout tile: error: the following arguments are required: n, k"),
    (["regions"], 1, "", "lightsout regions: error: the following arguments are required: --k"),
    (["mcp", "5"], 1, "", "lightsout mcp: error: one of the arguments --brute --certify is required"),
    (["mcp", "--brute", "--certify", "5"], 1, "",
     "lightsout mcp: error: argument --certify: not allowed with argument --brute"),
    (["mcp", "--certify", "--brute", "5"], 1, "",
     "lightsout mcp: error: argument --brute: not allowed with argument --certify"),
]


@pytest.mark.parametrize("argv, code, out, last_err", GRAMMAR, ids=[" ".join(g[0]) or "-" for g in GRAMMAR])
def test_grammar(capsys, argv, code, out, last_err):
    got_code, got_out, got_err = run(capsys, *argv)
    assert got_code == code
    if out is not None:
        assert got_out == out
    if last_err is None:
        assert got_err == ""
    else:
        prog = last_err.split(": error: ")[0]  # "lightsout", then the subcommand once known
        assert got_err.startswith(f"usage: {prog} ")
        assert got_err.endswith(f"\n{last_err}\n")


def test_equals_form_prints_what_the_spaced_form_prints(capsys):
    assert run(capsys, "mcp", "--k=2", "--certify") == run(capsys, "mcp", "--k", "2", "--certify")


OPTIONS = {
    None: ["nullity", "kernel", "solve", "mcp", "tile", "regions", "scan", "verify"],
    "nullity": [], "verify": [], "kernel": ["--pbm"], "solve": ["--min"], "tile": ["--pbm"],
    "mcp": ["--k", "--brute", "--certify", "--out", "--workers"],
    "regions": ["--k", "--pbm"], "scan": ["--fast", "--out", "--workers"],
}


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", list(OPTIONS), ids=str)
def test_help_names_every_option(capsys, command, flag):
    argv = [command, flag] if command else [flag]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    usage = out.splitlines()[0]
    assert usage.startswith(f"usage: lightsout {command} [-h]" if command else "usage: lightsout [-h]")
    assert all(name in usage for name in OPTIONS[command])


# -- many calls in one process ----------------------------------------------------

@pytest.mark.parametrize("calls", [
    [("nullity", "0"), ("nullity", "5")],
    [("mcp", "5", "--brute"), ("mcp", "--k", "1", "--certify")],
    [("scan", "100", "--workers", "2"), ("scan", "100")],
    [("--help",), ("--help",)],
])
def test_parser_reuse_matches_calls_on_their_own(capsys, calls):
    alone = [run(capsys, *argv) for argv in calls]
    assert [run(capsys, *argv) for argv in calls] == alone


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


def _children(pid):
    """The processes whose parent is ``pid``, read from /proc."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == pid:
            found.append(int(stat.parent.name))
    return found


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.skipif(not hasattr(os, "fork") or not Path("/proc/self/stat").exists(),
                    reason="needs os.fork and /proc")
def test_sigterm_reaps_the_scan_workers():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.Popen([sys.executable, "-m", "lightsout", "scan", "150000", "--fast", "--workers", "2"],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)
    workers = []
    try:
        deadline = time.monotonic() + 30
        while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
            workers = _children(proc.pid)
        assert len(workers) == 2
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 143
        deadline = time.monotonic() + 2
        while True:
            alive = [pid for pid in workers if _alive(pid)]
            if not alive or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        assert alive == []
    finally:  # nothing outlives the test, whatever failed
        proc.kill()
        proc.wait()
        for pid in filter(_alive, workers):
            os.kill(pid, signal.SIGKILL)

