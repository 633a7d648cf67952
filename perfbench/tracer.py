"""Spans around the calls each lightsout module makes into the next.

The tracer swaps a public function for a timing wrapper in every
lightsout module that holds it, so calls from the CLI, from sibling
modules and from inside the defining module all pass through the
wrapper. Spans are kept in memory as [name, start, end, parent, attrs]
and written out once, when the traced pass ends. Nothing inside
``src/`` is edited; uninstall() puts every original back.
"""

from __future__ import annotations

import importlib
import json
import time

__all__ = ["TARGETS", "Tracer", "self_times"]

# (module, public name, span name)
TARGETS = (
    ("cli", "main", "cli.main"),
    ("gf2poly", "nullity", "gf2poly.nullity"),
    ("gf2poly", "nullity_range", "gf2poly.nullity_range"),
    ("scan", "census", "scan.census"),
    ("scan", "scan_range", "scan.scan_range"),
    ("scan", "write_records_csv", "scan.write_records_csv"),
    ("scan", "read_records_csv", "scan.read_records_csv"),
    ("gridmap", "kernel_basis", "gridmap.kernel_basis"),
    ("gridmap", "is_solvable", "gridmap.is_solvable"),
    ("gridmap", "solve_particular", "gridmap.solve_particular"),
    ("gridmap", "min_clicks", "gridmap.min_clicks"),
    ("gridmap", "apply_clicks", "gridmap.apply_clicks"),
    ("gridmap", "parse_pattern", "gridmap.parse_pattern"),
    ("gridmap", "format_pattern", "gridmap.format_pattern"),
    ("covers", "is_even_cover", "covers.is_even_cover"),
    ("covers", "tile_cover", "covers.tile_cover"),
    ("covers", "region_partition", "covers.region_partition"),
    ("mcp", "mcp_bruteforce", "mcp.mcp_bruteforce"),
    ("mcp", "worst_case_construct", "mcp.worst_case_construct"),
    ("mcp", "verify_certificate", "mcp.verify_certificate"),
)

MODULES = ("cli", "gf2poly", "gridmap", "covers", "mcp", "scan")


def _note_sides(attrs, args, result):
    sides = [n for n, _ in result] if isinstance(result, list) else [args[0]]
    attrs["sides"] = len(sides)
    attrs["degree_sum"] = sum(sides)


def _note_n(attrs, args, result):
    n = args[0]
    attrs["n"] = n if isinstance(n, int) else n.n  # a side, or a CellSet


class Tracer:
    """Records spans while installed; one tracer per traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        mods = {m: importlib.import_module(f"lightsout.{m}") for m in MODULES}
        for mod_name, attr, span in TARGETS:
            orig = getattr(mods[mod_name], attr)
            wrapped = self._wrap(orig, span)
            for mod in mods.values():
                if getattr(mod, attr, None) is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        cache_info = getattr(fn, "cache_info", None)
        if name in ("gf2poly.nullity", "gf2poly.nullity_range"):
            note = _note_sides
        elif name in ("mcp.mcp_bruteforce", "gridmap.min_clicks"):
            note = _note_n
        else:
            note = None

        def wrapper(*args, **kwargs):
            attrs: dict = {}
            misses = cache_info().misses if cache_info else 0
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, attrs])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if cache_info:
                attrs["cold"] = cache_info().misses > misses
            if note:
                note(attrs, args, result)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest strictly, so children never
    overlap and their durations can simply be subtracted.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
