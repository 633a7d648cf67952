"""The benchmark's answer checks and tracer, run against this checkout.

perfbench/ holds the benchmark and its own validator suite; running that
suite here means a change to certificate JSON or CLI output that the
benchmark would reject fails the ordinary test run too. One pass of each
workload runs here as well, so an answer its checks refuse fails this
run. The tracer test does the same for ``--trace 1``, which wraps public
functions by name.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lightsout.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_validator_suite_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]


@pytest.mark.parametrize("workload", ["census", "queries", "mcp"])
def test_one_benchmark_pass_has_no_refused_or_wrong_answer(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", workload, "--seed", "1", "--tmp", str(tmp_path)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["refused"] == [] and report["wrong"] == []


def _load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve_and_uninstall():
    tracer = _load_tracer()
    modules = {m: importlib.import_module(f"lightsout.{m}") for m in tracer.MODULES}
    before = {(m, attr): getattr(modules[m], attr) for m, attr, _ in tracer.TARGETS}
    t = tracer.Tracer()
    t.install()  # raises AttributeError if a target name is gone
    try:
        for (m, attr), orig in before.items():
            assert getattr(modules[m], attr) is not orig, f"{m}.{attr} not wrapped"
    finally:
        t.uninstall()
    assert {key: getattr(modules[key[0]], key[1]) for key in before} == before


def test_nullity_is_one_span_per_call(capsys):
    # a self-recursive nullity would record nested spans and inflate
    # the benchmark's gf2poly.nullity.calls
    t = _load_tracer().Tracer()
    t.install()
    try:
        assert main(["nullity", "24999"]) == 0
    finally:
        t.uninstall()
    assert capsys.readouterr().out == "32\n"
    assert [span[0] for span in t.spans].count("gf2poly.nullity") == 1
