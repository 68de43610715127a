"""Smoke test: every script in demos/, and README's library sketch, runs to
completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_SKETCH = "## Library sketch"


def readme_block(heading):
    """The first ```python block after ``heading`` in README.md."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split(f"\n{heading}\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("demo", [*DEMOS, README_SKETCH],
                         ids=lambda p: getattr(p, "stem", "readme_sketch"))
def test_demo_exits_0(demo, tmp_path):
    if demo == README_SKETCH:
        demo = tmp_path / "readme_sketch.py"
        demo.write_text(readme_block(README_SKETCH), encoding="utf-8")
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
