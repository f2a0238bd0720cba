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


def exit_code_rows():
    """{code: meaning} from the table under "Reports and exit codes"."""
    section = README.read_text(encoding="utf-8").split("### Reports and exit codes", 1)[1]
    return {int(code): meaning
            for code, meaning in re.findall(r"^\| (\d+) \| (.*) \|$", section, re.M)}


def test_exit_code_table_matches_the_cli():
    from robustmolp.cli import _EXIT_OF, _EXIT_ON
    rows = exit_code_rows()
    assert set(rows) == {*_EXIT_OF.values(), *(code for _, code in _EXIT_ON)}
    for verdict, code in _EXIT_OF.items():
        word = "success" if verdict == "ok" else verdict
        assert re.search(rf"\b{word}\b", rows[code]), (verdict, code, rows[code])
