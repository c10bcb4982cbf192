"""Every ```python block in README.md runs as written."""

import pathlib
import re

import pytest

_README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
_BLOCKS = re.findall(r"^```python\n(.*?)^```", _README.read_text(encoding="utf-8"),
                     re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert _BLOCKS


@pytest.mark.parametrize("index", range(len(_BLOCKS)))
def test_readme_python_block_runs(index, capsys):
    exec(compile(_BLOCKS[index], f"README.md[python block {index}]", "exec"), {})
