import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code, tmp_path):
    # each fenced python block of the README runs as written against the
    # source tree, with a numpy RuntimeWarning counted as a failure
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr


def test_readme_layout_names_every_module():
    # the Layout block lists exactly the package's .py files, each once
    layout = re.search(r"^## Layout\n\n```\nsrc/delaris/\n(.*?)^\S", (ROOT / "README.md").read_text(),
                       re.M | re.S).group(1)
    listed = re.findall(r"^\s+(\S+\.py)\s", layout, re.M)
    assert sorted(listed) == sorted(p.name for p in (ROOT / "src" / "delaris").glob("*.py"))
