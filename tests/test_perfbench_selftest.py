"""The benchmark's self-test (perfbench/selftest.py) runs with the suite, so
a change that breaks the benchmark's byte gate or payload count fails here."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
    finally:
        shutil.rmtree(ROOT / ".perfbench_out" / "selftest",
                      ignore_errors=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all passed" in proc.stdout
