"""The stdout of every worked example in demos/ is pinned in golden/."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_stdout_is_pinned(capsys, name):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / f"demo_{name}.txt").read_text()
