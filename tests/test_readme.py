"""The README's code runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library example\n\n```python\n(.*?)^```", text, re.S | re.M)
    assert block, "README has no Library example block"
    exec(compile(block.group(1), "README.md", "exec"), {})
