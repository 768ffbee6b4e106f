"""Every demo script and every Python example of README.md runs to
completion against the checkout's sources, with every warning an error,
as pytest makes them for the tests."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_EXAMPLES = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-W", "error", str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stderr


def test_readme_has_python_examples():
    assert len(README_EXAMPLES) >= 2


@pytest.mark.parametrize("source", README_EXAMPLES, ids=[f"example-{k + 1}" for k in range(len(README_EXAMPLES))])
def test_readme_example_runs(source, tmp_path):
    # The backtesting example reads data/asset*.csv, which simulate writes.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in (["-m", "chmmtrade.cli", "simulate", "--bars", "300", "--out", "data"], ["-c", source]):
        done = subprocess.run(
            [sys.executable, "-W", "error", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300, check=False,
        )
        assert done.returncode == 0, done.stderr
