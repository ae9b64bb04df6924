"""Every script in demos/ runs to completion against the source tree."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    # a copy, so the files the demos write land outside the checkout
    dest = tmp_path_factory.mktemp("demos")
    shutil.copytree(ROOT / "demos", dest, dirs_exist_ok=True)
    return dest


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(demo_dir, name):
    proc = subprocess.run(
        [sys.executable, name], cwd=demo_dir,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
