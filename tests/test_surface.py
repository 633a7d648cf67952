"""The public surface: its names, which parameters a caller can leave out, and values.

A public name stays public only if the CLI, the benchmark or the
acceptance checklist reads it. A defaulted parameter is a setting; every
one should have a caller that sets it. Two literal sets pin the public
names and the settings, so adding or dropping one is a visible choice.
The record and report classes are immutable values: equal fields make
equal, equally hashed objects.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import lightsout
from lightsout import McpCertificate, worst_case_construct
from lightsout.cli import main
from lightsout.gridmap import KernelBasis, kernel_basis
from lightsout.scan import CongruenceReport, ConjectureEntry, ConjectureReport, ScanRecord

ROOT = Path(__file__).resolve().parents[1]
READERS = [ROOT / "src" / "lightsout" / "cli.py", *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]

PUBLIC = {
    "CellSet", "McpCertificate", "UnsolvableError",
    "all_solutions", "apply_clicks", "census", "check_conjecture_2_3k", "format_pattern",
    "format_pbm", "is_even_cover", "is_solvable", "kernel_basis", "mcp_bruteforce",
    "mcp_formula", "min_clicks", "nullity", "nullity_range", "parse_pattern",
    "read_records_csv", "region_partition", "scan_range", "solve_particular", "tile_cover",
    "verify_certificate", "worst_case_construct", "write_records_csv",
}

DEFAULTED = {
    ("nullity_range", "include"),
    ("verify_certificate", "check_min_clicks"),
    ("census", "fast"),
    ("census", "workers"),
    ("census", "progress"),
}


def _public_callables():
    for name in lightsout.__all__:
        obj = getattr(lightsout, name)
        if not inspect.isclass(obj):
            yield name, obj
            continue
        for attr in vars(obj):
            member = getattr(obj, attr)
            if (attr == "__init__" or not attr.startswith("_")) and callable(member):
                yield f"{name}.{attr}", member


def test_public_names_are_exactly_the_pinned_set():
    assert len(lightsout.__all__) == len(set(lightsout.__all__))
    assert set(lightsout.__all__) == PUBLIC


def test_defaulted_parameters_are_exactly_the_settings():
    found = [
        (name, param.name)
        for name, fn in _public_callables()
        for param in inspect.signature(fn).parameters.values()
        if param.default is not param.empty
    ]
    assert sorted(found) == sorted(DEFAULTED)


def test_every_public_name_has_a_reader():
    words = set(re.findall(r"\w+", "".join(path.read_text(encoding="utf-8") for path in READERS)))
    assert [name for name in lightsout.__all__ if name not in words] == []


@pytest.mark.parametrize("module", ["cli", "covers", "gf2poly", "gridmap", "mcp", "scan"])
def test_every_public_function_is_in_its_modules_all(module):
    mod = importlib.import_module(f"lightsout.{module}")
    defined = [name for name, obj in vars(mod).items()
               if inspect.isfunction(obj) and obj.__module__ == mod.__name__]
    assert [name for name in defined if not name.startswith("_") and name not in mod.__all__] == []


def test_scan_has_no_jsonl_flag(capsys):
    assert main(["scan", "30", "--jsonl"]) == 1
    assert "unrecognized arguments: --jsonl" in capsys.readouterr().err


def _certificate_and_read_back(k):
    cert = worst_case_construct(k)
    return cert, McpCertificate.from_json(cert.to_json()), worst_case_construct(k + 1)


# name -> (a field, then a value, an equal value built apart, a different value);
# KernelBasis is a tuple with no fields, so its "field" is a new attribute
VALUES = {
    "ScanRecord": ("nullity", lambda: (ScanRecord(5, 2), ScanRecord(5, 2), ScanRecord(5, 0))),
    "CongruenceReport": ("checked", lambda: (
        CongruenceReport(1, ()), CongruenceReport(1, ()),
        CongruenceReport(2, (ScanRecord(7, 2),)))),
    "ConjectureEntry": ("k", lambda: (
        ConjectureEntry(1, 5, 2), ConjectureEntry(1, 5, 2), ConjectureEntry(2, 17, 2))),
    "ConjectureReport": ("entries", lambda: (
        ConjectureReport((ConjectureEntry(1, 5, 2),)), ConjectureReport((ConjectureEntry(1, 5, 2),)),
        ConjectureReport(()))),
    "KernelBasis": ("n", lambda: (kernel_basis(5), KernelBasis(kernel_basis(5)), kernel_basis(4))),
    "McpCertificate k=1": ("witness", lambda: _certificate_and_read_back(1)),
    "McpCertificate k=2": ("claimed_min", lambda: _certificate_and_read_back(2)),
}


@pytest.mark.parametrize("name", VALUES)
def test_records_and_reports_are_immutable_values(name):
    field, build = VALUES[name]
    value, same, other = build()
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field, None))
    assert value == same and hash(value) == hash(same)
    assert value is not same and value != other
    if name == "ScanRecord":
        assert sorted([ScanRecord(5, 2), ScanRecord(3, 4), ScanRecord(5, 0)]) == [
            ScanRecord(3, 4), ScanRecord(5, 0), ScanRecord(5, 2)]
        assert repr(ScanRecord(5, 2)) == "ScanRecord(n=5, nullity=2)"
