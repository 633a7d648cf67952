"""Command-line interface.

Subcommands map one-to-one onto the library: ``nullity`` and ``kernel``
expose the GF(2) structure of a grid, ``solve`` reads a light pattern and
prints a click set, ``mcp`` computes or certifies worst-case click counts,
``tile`` grows even parity covers, ``regions`` prints the four-region
partition of a nullity-2 grid, and ``scan`` runs the nullity census.

Exit codes: 0 success, 1 usage or internal error, 2 mathematically
unsolvable input. Identical invocations produce byte-identical output;
progress chatter goes to stderr only. ``main`` may be called any number
of times in one process: the parser is built on the first call and
reused, and each call's output equals that of the same call on its own.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from . import covers, gridmap, mcp, scan
from .gf2poly import nullity
from .gridmap import UnsolvableError

__all__ = ["main"]

_LIST_LIMIT = 20  # print individual nullity-2 sides only for short lists


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; here 2 is reserved for unsolvable."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _read_pattern(path: str) -> gridmap.CellSet:
    with open(path, "r", encoding="utf-8") as fh:
        return gridmap.parse_pattern(fh.read())


def _emit(cells: gridmap.CellSet, pbm: bool) -> str:
    return gridmap.format_pbm(cells) if pbm else gridmap.format_pattern(cells)


# -- subcommands ---------------------------------------------------------------

def _cmd_nullity(args) -> int:
    print(nullity(args.n))
    return 0


def _cmd_kernel(args) -> int:
    basis = gridmap.kernel_basis(args.n)
    if len(basis) == 0:
        print("(empty kernel)")
        return 0
    sys.stdout.write("\n".join(_emit(e, args.pbm) for e in basis))
    return 0


def _cmd_solve(args) -> int:
    config = _read_pattern(args.file)
    if args.min:
        count, witness = gridmap.min_clicks(config)
    else:
        witness = gridmap.solve_particular(config)
        count = len(witness)
    sys.stdout.write(gridmap.format_pattern(witness))
    print(f"clicks: {count}")
    return 0


def _cmd_mcp(args) -> int:
    if (args.n is None) == (args.k is None):
        raise ValueError("give exactly one of a side length n or --k")
    if args.brute:
        if args.out is not None:
            raise ValueError("--out needs --certify")
        n = args.n if args.n is not None else 6 * args.k - 1
        # an empty kernel leaves one click set a coset: the answer is n^2, no image needed
        print(n * n if nullity(n) == 0 else mcp.mcp_bruteforce(n)[0])
        return 0
    if args.k is not None:
        k = args.k
    else:
        if args.n % 6 != 5:
            raise ValueError(f"side {args.n} is not of the form 6k-1; "
                             "certificates need --k or such a side")
        k = (args.n + 1) // 6
    if args.out is not None:  # created now, so an unwritable path fails before the construction
        open(args.out, "w", encoding="utf-8").close()
    cert = mcp.worst_case_construct(k)
    print(cert.claimed_min)
    if not cert.certified:
        print(f"upper bound only (nullity {cert.nullity})")
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(cert.to_json())
        print(f"certificate written to {args.out}")
    else:
        sys.stdout.write(cert.to_json())
    return 0


def _cmd_tile(args) -> int:
    quilt = _read_pattern(args.file)
    sys.stdout.write(_emit(covers.tile_cover(quilt, args.n, args.k), args.pbm))
    return 0


def _cmd_regions(args) -> int:
    blocks = []
    for i, region in enumerate(covers.region_partition(args.k), start=1):
        blocks.append(f"region {i}: {len(region)} cells\n" + _emit(region, args.pbm))
    sys.stdout.write("\n".join(blocks))
    return 0


def _cmd_scan(args) -> int:
    if args.out is not None:  # created now, so an unwritable path fails before the scan
        open(args.out, "w", encoding="utf-8").close()

    last = -1

    def progress(done: int, total: int) -> None:
        nonlocal last
        pct = done * 100 // total
        if pct >= last + 5 or done == total:
            last = pct
            print(f"scan: {done}/{total} sides ({pct}%)", file=sys.stderr)

    records, report = scan.census(
        args.n_max,
        fast=args.fast,
        workers=args.workers,
        progress=progress if args.n_max >= 5000 else None,
    )
    if args.out is not None:
        scan.write_records_csv(records, args.out)
    twos = [rec.n for rec in records if rec.nullity == 2]
    if twos and len(twos) <= _LIST_LIMIT:
        print("nullity-2 sides: " + ", ".join(str(n) for n in twos))
    print(f"nullity-2 count: {len(twos)}")
    for line in report.summary_lines():
        print(line)
    if args.out is not None:
        print(f"records written to {args.out}")
    return 0 if report.ok else 1


# -- parser ---------------------------------------------------------------------

# Built once per process, as building costs some thirty to fifty parses.
# Reuse is safe: parse_args returns a fresh Namespace on every call, every
# default is immutable (None or False), usage errors, usage and --help look
# up sys.stdout and sys.stderr when they print (so redirect_stdout and
# captured streams still see them), and help reads COLUMNS when formatted.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="lightsout",
        description="Lights Out on square grids: kernels, covers, and "
                    "worst-case click counts over GF(2).",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("nullity", help="kernel dimension of the n-by-n grid")
    p.add_argument("n", type=_positive_int)
    p.set_defaults(func=_cmd_nullity)

    p = sub.add_parser("kernel", help="print a kernel basis as patterns")
    p.add_argument("n", type=_positive_int)
    p.add_argument("--pbm", action="store_true", help="emit PBM P1 instead of text")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("solve", help="solve a light pattern file")
    p.add_argument("file", help="pattern file ('#' lit, '.' unlit)")
    p.add_argument("--min", action="store_true",
                   help="minimum-click solution instead of any solution")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("mcp", help="worst-case click count")
    p.add_argument("n", nargs="?", type=_positive_int,
                   help="side length (alternative to --k)")
    p.add_argument("--k", type=_positive_int,
                   help="parameter k for side 6k-1")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--brute", action="store_true",
                      help="exact search over every kernel coset (small n)")
    mode.add_argument("--certify", action="store_true",
                      help="constructive certificate for side 6k-1")
    p.add_argument("--out", help="write the certificate JSON here")
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="accepted for compatibility; no effect on mcp, "
                        "whose search runs in one process")
    p.set_defaults(func=_cmd_mcp)

    p = sub.add_parser("tile", help="tile an (n-1)x(n-1) even parity cover "
                                    "to (nk-1)x(nk-1)")
    p.add_argument("file", help="pattern file holding the cover")
    p.add_argument("n", type=_positive_int)
    p.add_argument("k", type=_positive_int)
    p.add_argument("--pbm", action="store_true")
    p.set_defaults(func=_cmd_tile)

    p = sub.add_parser("regions", help="four-region partition of a "
                                       "nullity-2 grid of side 6k-1")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--pbm", action="store_true")
    p.set_defaults(func=_cmd_regions)

    p = sub.add_parser("scan", help="nullity census up to n_max")
    p.add_argument("n_max", type=_positive_int)
    p.add_argument("--fast", action="store_true",
                   help="only sides n = 5 mod 12, by the halving identities; "
                        "d(n) is always even and every d = 2 side is 5 mod 12, "
                        "so the d = 2 count is exact")
    p.add_argument("--out", help="write records here as CSV")
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="worker processes (default: the CPUs this process may run on)")
    p.set_defaults(func=_cmd_scan)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UnsolvableError:
        print("unsolvable")
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
