"""The README's library quick start, run as it is written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start():
    """The python block under the "Library quick start" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start(capsys):
    scope = {}
    exec(compile(quick_start(), str(README), "exec"), scope)
    printed = capsys.readouterr().out.splitlines()
    # the radius to the bit, as its comment shows it
    assert float(printed[0]) == 3.0550504633038935
    out = scope["out"]
    assert out.status == "certified"
    assert out.certificate.lambda_nominal == pytest.approx([2 / 3, 1 / 3], abs=1e-9)
