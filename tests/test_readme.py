"""The README's library example runs, and its comments state what it returns."""

import pathlib
import re

from precubical import core, modelio

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example():
    text = README.read_text(encoding="utf-8")
    snippet = re.search(r"Example:\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace: dict = {}
    exec(snippet, namespace)
    [(count, _)] = namespace["table"].classes.values()
    assert "# one class pair, count 2" in snippet and count == 2
    steps = int(re.search(r"# (\d+) certified steps", snippet).group(1))
    assert len(namespace["trail"]) == steps == 14
    mapping = core.are_isomorphic(namespace["Q"], modelio.named_fixture("double_edge"))
    assert "# a mapping" in snippet and mapping is not None
