"""The public surface: which parameters a caller can leave out.

A defaulted parameter is a setting; every one should have a caller that
sets it. This list pins the whole set, so adding one is a visible choice.
"""

import inspect

import lightsout
from lightsout.cli import main

DEFAULTED = {
    ("nullity_range", "include"),
    ("verify_certificate", "check_min_clicks"),
    ("scan_range", "fast"),
    ("scan_range", "workers"),
    ("scan_range", "progress"),
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


def test_defaulted_parameters_are_exactly_the_settings():
    found = [
        (name, param.name)
        for name, fn in _public_callables()
        for param in inspect.signature(fn).parameters.values()
        if param.default is not param.empty
    ]
    assert sorted(found) == sorted(DEFAULTED)


def test_scan_has_no_jsonl_flag(capsys):
    assert main(["scan", "30", "--jsonl"]) == 1
    assert "unrecognized arguments: --jsonl" in capsys.readouterr().err
