"""Start-up: importing the package loads only what importing it needs.

The process pool, ``json`` and ``csv`` are imported by the functions that
use them, and no class is a dataclass, so a command that needs none of
them pays none of their import time. Each check runs in a fresh
``python -S`` interpreter, where no site hook has loaded anything first.
"""

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
DEFERRED = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect", "json", "csv")


def _loaded_after(code: str) -> list[str]:
    """The modules of ``DEFERRED`` loaded once ``code`` has run."""
    script = (f"import sys; sys.path.insert(0, {SRC!r}); {code}\n"
              f"print(*[m for m in {DEFERRED!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_import_loads_no_pool_dataclasses_json_or_csv():
    assert _loaded_after("import lightsout") == []


def test_a_one_block_scan_imports_no_pool():
    loaded = _loaded_after("from lightsout import cli; cli.main(['scan', '100', '--workers', '2'])")
    assert "concurrent.futures" not in loaded
