"""Command-line interface, whose grammar is the table ``_COMMANDS``.

Exit codes: 0 success, 1 usage or internal error, 2 unsolvable input.
Identical calls print identical bytes, whether or not earlier calls ran in
the same process; progress chatter goes to stderr only. A command that
would build a grid wider than ``SIDE_CAP`` refuses, with exit 1, before it
reads or builds anything of that size (``verify`` reads at most a side-cap
certificate's length, and refuses a wider side before checking it);
``nullity``, ``scan`` and ``mcp --brute`` build no such grid and take any side.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import Callable, Sequence

from . import covers, gridmap, mcp, scan
from .gf2poly import nullity
from .gridmap import UnsolvableError

__all__ = ["main"]

_LIST_LIMIT = 20  # print individual nullity-2 sides only for short lists
# The widest grid a command builds. Side 1025 is the first whose kernel
# printout passes 500 MB (d = 506); time and peak RSS below it are in CHANGES.md.
SIDE_CAP = 1024
# The longest certificate file read: one of side SIDE_CAP as to_json writes it,
# two patterns of SIDE_CAP rows, each SIDE_CAP cells and a two-character escaped
# newline, plus 4096 characters for its other fields, indentation and stored flags.
_CERT_CHARS = 2 * SIDE_CAP * (SIDE_CAP + 2) + 4096


def _check_side(side: int, what: str = "side") -> None:
    if side > SIDE_CAP:
        raise ValueError(f"{what} {side} exceeds the side cap {SIDE_CAP}")


def _read_pattern(path: str) -> gridmap.CellSet:
    """The pattern in ``path``, refused by its first line's length before the rest is read."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline(SIDE_CAP + 1)  # a row at the cap and its newline, or too long a row
        n = len(first.rstrip("\n"))
        _check_side(n, "pattern side")
        # the n - 1 rows left of a side-n pattern, and one character that refuses a longer file
        return gridmap.parse_pattern(first + fh.read((n - 1) * (n + 1) + 1))


def _emit(cells: gridmap.CellSet, pbm: bool) -> str:
    return gridmap.format_pbm(cells) if pbm else gridmap.format_pattern(cells)


# -- subcommands ---------------------------------------------------------------

def _cmd_nullity(args) -> int:
    print(nullity(args.n))
    return 0


def _cmd_kernel(args) -> int:
    _check_side(args.n)
    basis = gridmap.kernel_basis(args.n)
    if len(basis) == 0:
        print("(empty kernel)")
        return 0
    for i, e in enumerate(basis):  # one pattern at a time: the printout can pass 70 MB
        sys.stdout.write(("\n" if i else "") + _emit(e, args.pbm))
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
    n = args.n if args.n is not None else 6 * args.k - 1
    if args.brute:
        if args.out is not None:
            raise ValueError("--out needs --certify")
        # an empty kernel leaves one click set a coset: the answer is n^2, no image needed
        print(n * n if nullity(n) == 0 else mcp.mcp_bruteforce(n)[0])
        return 0
    _check_side(n)
    if n % 6 != 5:
        raise ValueError(f"side {n} is not of the form 6k-1; certificates need --k or such a side")
    if args.out is not None:  # created now, so an unwritable path fails before the construction
        open(args.out, "w", encoding="utf-8").close()
    cert = mcp.worst_case_construct((n + 1) // 6)
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
    _check_side(args.n * args.k - 1, "output side")
    quilt = _read_pattern(args.file)
    sys.stdout.write(_emit(covers.tile_cover(quilt, args.n, args.k), args.pbm))
    return 0


def _cmd_regions(args) -> int:
    _check_side(6 * args.k - 1)
    blocks = []
    for i, region in enumerate(covers.region_partition(args.k), start=1):
        blocks.append(f"region {i}: {len(region)} cells\n" + _emit(region, args.pbm))
    sys.stdout.write("\n".join(blocks))
    return 0


def _cmd_verify(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read(_CERT_CHARS + 1)
    if len(text) > _CERT_CHARS:  # longer than any certificate the cap admits: never decoded
        raise ValueError(f"certificate {args.file} is longer than one of side {SIDE_CAP}")
    cert = mcp.McpCertificate.from_json(text)
    _check_side(cert.n)
    if not mcp.verify_certificate(cert, check_min_clicks=True):
        raise ValueError(f"certificate {args.file} does not verify")
    print("verified")
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


# -- grammar --------------------------------------------------------------------

# Each subcommand: its handler, its help line, its arguments in the order of its
# usage line ("--opt", then "n", or "[n]" where it may be left out) with their
# types (int: an integer >= 1, str: a path, None: a flag), and the options of
# which exactly one must be given (a lone one is simply required). Parsing,
# usage lines and -h text all read it.
_COMMANDS = {
    "nullity": (_cmd_nullity, "kernel dimension of the n-by-n grid", {"n": int}, ()),
    "kernel": (_cmd_kernel, "print a kernel basis as patterns", {"--pbm": None, "n": int}, ()),
    "solve": (_cmd_solve, "solve a light pattern file", {"--min": None, "file": str}, ()),
    "mcp": (_cmd_mcp, "worst-case click count by --brute or --certify", {"--k": int, "--brute": None,
            "--certify": None, "--out": str, "--workers": int, "[n]": int}, ("--brute", "--certify")),
    "tile": (_cmd_tile, "tile an (n-1)x(n-1) even parity cover to (nk-1)x(nk-1)",
             {"--pbm": None, "file": str, "n": int, "k": int}, ()),
    "regions": (_cmd_regions, "four-region partition of a nullity-2 grid of side 6k-1",
                {"--k": int, "--pbm": None}, ("--k",)),
    "scan": (_cmd_scan, "nullity census up to n_max",
             {"--fast": None, "--out": str, "--workers": int, "n_max": int}, ()),
    "verify": (_cmd_verify, "re-check an mcp certificate file from scratch", {"file": str}, ()),
}


class _UsageError(Exception):
    """A malformed command line: (the subcommand once known, the reason)."""


def _classify(token: str, args: dict) -> tuple[str, str | None] | None:
    """None for a positional; else (the option, in full or by a unique prefix, or ""; its =value)."""
    if not token.startswith("-") or token in ("-", "--") or token[1:].isdecimal():  # positionals
        return None
    # the positionals among args never match: they do not start with "-"
    names, (head, eq, value) = ("-h", "--help", *args), token.partition("=")
    hits = [head] if head in names else [n for n in names if n.startswith(head) and token[1] == "-"]
    return (hits[0] if len(hits) == 1 else ""), (value if eq else None)


def _value(command: str, arg: str, kind: type, text: str) -> int | str:
    try:
        value = kind(text)
    except ValueError:
        raise _UsageError(command, f"argument {arg}: not an integer: {text!r}") from None
    if kind is int and value < 1:
        raise _UsageError(command, f"argument {arg}: must be >= 1, got {value}")
    return value


def _parse(argv: Sequence[str]) -> tuple[Callable, SimpleNamespace | None]:
    """The handler for ``argv`` and its argument, read in one walk over ``argv``."""
    command, run, args, needs, tokens = None, None, {}, (), iter(argv)
    waiting, values, extras, dashed = ["subcommand"], {}, [], False
    for token in tokens:  # the first positional names the subcommand; a later "--" ends its options
        option = None if dashed else _classify(token, args)
        if token == "--" and command and not dashed:
            dashed = True
        elif option is None and command is None:
            if token not in _COMMANDS:
                raise _UsageError(None, f"argument subcommand: invalid choice: {token!r} "
                                        f"(choose from {', '.join(map(repr, _COMMANDS))})")
            command, (run, _, args, needs) = token, _COMMANDS[token]
            waiting = [arg for arg in args if arg[0] != "-"]  # positionals, in order
            values = {arg: None if kind else False for arg, kind in args.items()}
        elif option is None and waiting:
            arg = waiting.pop(0)
            values[arg] = _value(command, arg.strip("[]"), args[arg], token)
        elif option is None or not option[0] or option[1] is not None and not args.get(option[0]):
            extras.append(token)  # a flag given a value is unrecognized too
        elif option[0] not in args:  # -h or --help: the usage line, then what each command does
            rows = [(command, _COMMANDS[command])] if command else _COMMANDS.items()
            sys.stdout.write(_usage(command) + "".join(f"  {name:<9}{row[1]}\n" for name, row in rows))
            return (lambda _: 0), None
        else:
            (name, value), kind = option, args[option[0]]
            if name in needs and (clash := [o for o in needs if o != name and values[o]]):
                raise _UsageError(command, f"argument {name}: not allowed with argument {clash[0]}")
            # an option without "=value" takes the next token, which must be a positional
            if kind and value is None and ((value := next(tokens, "--")) == "--" or _classify(value, args)):
                raise _UsageError(command, f"argument {name}: expected one argument")
            values[name] = True if kind is None else _value(command, name, kind, value)
    missing = [arg for arg in waiting if arg[0] != "["]
    missing += [name for name in needs if len(needs) == 1 and not values[name]]
    if missing:
        raise _UsageError(command, f"the following arguments are required: {', '.join(missing)}")
    if needs and not any(values[name] for name in needs):
        raise _UsageError(command, f"one of the arguments {' '.join(needs)} is required")
    if extras:
        raise _UsageError(command, f"unrecognized arguments: {' '.join(extras)}")
    return run, SimpleNamespace(**{arg.strip("[-]"): value for arg, value in values.items()})


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: lightsout [-h] {{{','.join(_COMMANDS)}}} ...\n"
    (_, _, args, needs), words = _COMMANDS[command], [command, "[-h]"]
    for arg, kind in args.items():
        word = f"{arg} {arg[2:].upper()}" if kind and arg[0] == "-" else arg
        words.append(word if arg[0] != "-" or needs == (arg,) else f"[{word}]")
    return f"usage: lightsout {' '.join(words)}\n"


def main(argv: Sequence[str] | None = None) -> int:
    try:
        run, args = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        cmd, reason = exc.args
        sys.stderr.write(f"{_usage(cmd)}lightsout{' ' + cmd if cmd else ''}: error: {reason}\n")
        return 1
    try:
        return run(args)
    except UnsolvableError:
        print("unsolvable")
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

if __name__ == "__main__":
    sys.exit(main())
