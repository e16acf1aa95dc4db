"""The walkthrough scripts in demos/ and the README's library example run to
completion on the checked-out code.

Demo 05 is a comparison run cut to 40 cycles and one grid entry per family.
"""

from __future__ import annotations

import re

import pytest

from helpers import SRC, run_python

DEMOS = SRC.parent / "demos"
README = SRC.parent / "README.md"


@pytest.mark.parametrize("name", [
    "01_simulate_and_inspect.py",
    "02_rules_vs_logs.py",
    "03_cleaning_walkthrough.py",
    "04_curate_and_train.py",
    "05_full_comparison.py",
])
def test_demo_runs(name, tmp_path):
    proc = run_python(str(DEMOS / name), timeout=300, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    if name.startswith("03"):
        # the dropout is rebuilt before screening, as preprocess does
        assert "screening flagged 75 suspect points" in proc.stdout


def test_readme_library_block_runs(tmp_path):
    block = re.search(r"^## Library\n+```python\n(.*?)^```", README.read_text(),
                      re.MULTILINE | re.DOTALL)
    assert block, "README has no python block under '## Library'"
    proc = run_python("-c", block.group(1), timeout=300, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
