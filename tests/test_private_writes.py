"""Only `core` changes a complex: no other library module assigns to, or
deletes, an underscore attribute of anything but `self`, such as
`P._cofaces = ...` or `Q._log = ...`. A module that needs a complex in
some state asks `core` for it through a method."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "precubical"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "core.py")


def private_writes(source: str) -> list[str]:
    """`line: target` for each write to an underscore attribute of an
    object other than `self` in the source."""
    return [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, (ast.Store, ast.Del))
        and node.attr.startswith("_")
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_but_core_writes_a_private_attribute(path):
    assert private_writes(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    ["P._cofaces = tables", "Q._log += []", "P._x: int = 1", "a, P._y = 1, 2", "del P._z",
     "self.inner._w = 1", "for P._v in (): pass"],
)
def test_each_kind_of_write_is_seen(source):
    assert len(private_writes(source)) == 1


def test_writes_through_self_and_public_names_pass():
    assert private_writes("self._cofaces = None\nP.name = 1\nx = P._faces") == []
