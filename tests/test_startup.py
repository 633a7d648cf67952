"""Start-up: importing the package loads only what importing it needs.

``json`` and ``csv`` are imported by the functions that use them, no
class is a dataclass, and the census loads its forking map only when it
forks, with ``os``, ``select`` and ``marshal`` alone, so neither
importing the package nor any scan loads a process pool
(``concurrent.futures`` or ``multiprocessing``). The command line is
parsed from a table, so no CLI call loads ``argparse``. Each check runs in
a fresh ``python -S`` interpreter, where no site hook has loaded anything
first.
"""

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
DEFERRED = ("concurrent.futures", "multiprocessing", "lightsout._forkmap",
            "dataclasses", "inspect", "json", "csv")


def _loaded_after(code: str, modules: tuple[str, ...] = DEFERRED) -> list[str]:
    """The ``modules`` loaded once ``code`` has run."""
    script = (f"import sys; sys.path.insert(0, {SRC!r}); {code}\n"
              f"print(*[m for m in {modules!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_import_loads_no_pool_dataclasses_json_or_csv():
    assert _loaded_after("import lightsout") == []


def test_a_one_block_scan_imports_no_pool():
    loaded = _loaded_after("from lightsout import cli; cli.main(['scan', '100', '--workers', '2'])")
    assert "concurrent.futures" not in loaded


def test_a_forked_scan_imports_no_pool():
    loaded = _loaded_after("from lightsout import cli; cli.main(['scan', '1100', '--workers', '2'])")
    assert "concurrent.futures" not in loaded and "multiprocessing" not in loaded


def test_a_cli_call_imports_no_argparse():
    assert _loaded_after("from lightsout import cli; cli.main(['nullity', '5'])", ("argparse",)) == []
