"""The README's library quick start runs as written and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs():
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(_quick_start(), str(README), "exec"), namespace)
    design = namespace["design"]
    assert design.certified
    assert design.K_value == pytest.approx(676.0, rel=1e-10)
