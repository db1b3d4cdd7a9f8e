"""The demos and the README quick start run to completion.

Each runs in its own interpreter with the package source on the path, so
a public name they use that no longer exists fails here.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    done = _run([str(demo)], tmp_path)
    assert done.returncode == 0, done.stderr


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    done = _run(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr
