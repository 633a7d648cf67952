"""Each validator accepts a right answer and rejects a corrupted one.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of a checkout; lightsout is imported from ``src/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from functools import lru_cache
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import validate  # noqa: E402
import workloads  # noqa: E402
from lightsout import cli  # noqa: E402


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def read_back(path: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = workloads.read_back_certificate(["verify_certificate", path])
    return rc, out.getvalue()


def flip(text: str, index: int) -> str:
    """Toggle the index-th cell character of a pattern text."""
    cells = [i for i, ch in enumerate(text) if ch in "#."]
    i = cells[index]
    return text[:i] + ("." if text[i] == "#" else "#") + text[i + 1:]


@lru_cache(maxsize=1)
def census_files() -> tuple[str, str]:
    """(stdout, csv text) of the fast census to 25000, computed once."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.csv")
        rc, out = run_cli("scan", "25000", "--fast", "--out", path)
        assert rc == 0
        with open(path, encoding="utf-8") as fh:
            return out, fh.read()


class OracleTest(unittest.TestCase):
    def test_small_nullities(self):
        self.assertEqual([oracle.nullity(n) for n in range(1, 10)], [0, 0, 0, 4, 2, 0, 0, 0, 8])

    def test_halving_identities_agree_with_chasing(self):
        for n in range(2, 121):
            self.assertEqual(oracle.halved(n, oracle.nullity), oracle.grid(n).nullity, n)


class SolveTest(unittest.TestCase):
    n = 5  # nullity 2: four solutions per solvable board

    def setUp(self):
        g = oracle.grid(self.n)
        self.g = g
        self.board = g.lights(0b1011001110001)
        self.tmp = tempfile.TemporaryDirectory()
        self.path = os.path.join(self.tmp.name, "b.txt")
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(oracle.format_pattern(self.n, self.board))

    def tearDown(self):
        self.tmp.cleanup()

    def test_right_solution_accepted(self):
        for want_min in (False, True):
            argv = ["solve", "--min", self.path] if want_min else ["solve", self.path]
            rc, out = run_cli(*argv)
            self.assertIsNone(validate.check_solve(self.n, self.board, want_min, rc, out))

    def test_flipped_click_rejected(self):
        rc, out = run_cli("solve", self.path)
        self.assertIsNotNone(validate.check_solve(self.n, self.board, False, rc, flip(out, 3)))

    def test_wrong_count_rejected(self):
        rc, out = run_cli("solve", self.path)
        body, _, count = out.rpartition("clicks: ")
        bad = f"{body}clicks: {int(count) + 1}\n"
        self.assertIsNotNone(validate.check_solve(self.n, self.board, False, rc, bad))

    def test_non_minimal_rejected(self):
        rc, out = run_cli("solve", "--min", self.path)
        _, clicks = oracle.parse_pattern(out.rpartition("clicks: ")[0])
        worse = max((clicks ^ e for e in self.g.kernel), key=int.bit_count)
        bad = oracle.format_pattern(self.n, worse) + f"clicks: {worse.bit_count()}\n"
        self.assertIsNone(validate.check_solve(self.n, self.board, False, rc, bad))
        self.assertIsNotNone(validate.check_solve(self.n, self.board, True, rc, bad))

    def test_unsolvable_verdicts(self):
        off = self.board ^ (self.g.kernel[0] & -self.g.kernel[0])  # odd against a kernel vector
        self.assertIsNone(validate.check_solve(self.n, off, False, 2, "unsolvable\n"))
        self.assertIsNotNone(validate.check_solve(self.n, self.board, False, 2, "unsolvable\n"))
        rc, out = run_cli("solve", self.path)
        self.assertIsNotNone(validate.check_solve(self.n, off, False, rc, out))


class KernelTest(unittest.TestCase):
    def test_kernel(self):
        rc, out = run_cli("kernel", "4")
        self.assertIsNone(validate.check_kernel(4, rc, out))
        blocks = validate._blocks(out)
        self.assertIsNotNone(validate.check_kernel(4, rc, "\n".join(blocks[:-1])))
        self.assertIsNotNone(validate.check_kernel(4, rc, "\n".join(blocks[:-1] + blocks[:1])))
        self.assertIsNotNone(validate.check_kernel(4, rc, "\n".join(blocks[:-1] + [flip(blocks[-1], 0)])))
        self.assertIsNotNone(validate.check_kernel(4, rc, "(empty kernel)\n"))
        self.assertIsNone(validate.check_kernel(7, *run_cli("kernel", "7")))

    def test_nullity(self):
        self.assertIsNone(validate.check_nullity(5, *run_cli("nullity", "5")))
        self.assertIsNotNone(validate.check_nullity(5, 0, "0\n"))
        n = 24593  # a nullity-2 side
        self.assertIsNone(validate.check_nullity(n, *run_cli("nullity", str(n))))
        self.assertIsNotNone(validate.check_nullity(n, 0, "0\n"))


class CensusTest(unittest.TestCase):
    def check(self, out: str, text: str, sample=(5, 17, 24593)) -> str | None:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return validate.check_census(0, out, path, list(sample))

    def test_census(self):
        out, text = census_files()
        self.assertIsNone(self.check(out, text))
        lines = text.splitlines(keepends=True)
        self.assertIsNotNone(self.check(out.replace("1242", "1241"), text))
        self.assertIsNotNone(self.check(out, "".join(lines[:-1])))
        self.assertIsNotNone(self.check(out, text.replace("\n17,2\n", "\n17,0\n")))
        # Keeps the nullity-2 count, so only the oracle's sample can catch it.
        swapped = text.replace("\n17,2\n", "\n17,0\n").replace("\n29,10\n", "\n29,2\n")
        self.assertNotEqual(swapped, text)
        self.assertIn("oracle says", self.check(out, swapped))


class McpTest(unittest.TestCase):
    def test_values(self):
        self.assertIsNone(validate.check_mcp_value(5, 0, "15\n"))
        self.assertIsNotNone(validate.check_mcp_value(5, 0, "14\n"))
        self.assertIsNone(validate.check_mcp_value(7, 0, "49\n"))
        self.assertIsNotNone(validate.check_mcp_value(7, 0, "48\n"))

    def test_certificates(self):
        with tempfile.TemporaryDirectory() as tmp:
            for k in (1, 2):
                path = os.path.join(tmp, f"c{k}.json")
                rc, out = run_cli("mcp", "--k", str(k), "--certify", "--out", path)
                self.assertIsNone(validate.check_certificate(k, rc, out, path))
            path = os.path.join(tmp, "c1.json")
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            self.assertIsNone(validate.check_read_back(1, *read_back(path)))
            for field, value in (("witness", flip(doc["witness"], 0)),
                                 ("worst_config", flip(doc["worst_config"], 7)),
                                 ("claimed_min", 16)):
                bad = dict(doc, **{field: value})
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(bad, fh)
                self.assertIsNotNone(validate.check_certificate(1, 0, "15\n", path), field)
                self.assertIsNotNone(validate.check_read_back(1, *read_back(path)), field)
            os.remove(path)
            self.assertIsNotNone(validate.check_certificate(1, 0, "15\n", path))
            path = os.path.join(tmp, "c2.json")
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(dict(doc, certified=True), fh)
            _, out = run_cli("mcp", "--k", "2", "--certify")
            self.assertIsNotNone(validate.check_certificate(2, 0, out.split("{")[0], path))

    def test_regions(self):
        rc, out = run_cli("regions", "--k", "1")
        self.assertIsNone(validate.check_regions(1, rc, out))
        self.assertIsNotNone(validate.check_regions(1, rc, flip(out, 0)))
        parts = out.split("\n\n")
        self.assertIsNotNone(validate.check_regions(1, rc, "\n\n".join([parts[1], parts[0]] + parts[2:])))

    def test_tile(self):
        cover = oracle.grid(4).kernel[0]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "q.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(oracle.format_pattern(4, cover))
            rc, out = run_cli("tile", path, "5", "3")
        self.assertIsNone(validate.check_tile(cover, 5, 3, rc, out))
        self.assertIsNotNone(validate.check_tile(cover, 5, 3, rc, flip(out, 100)))
        self.assertIsNotNone(validate.check_tile(cover ^ 1, 5, 3, rc, out))


if __name__ == "__main__":
    unittest.main()
