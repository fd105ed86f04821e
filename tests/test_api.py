"""The public surface: every exported name resolves, the names that left
the library stay gone, and the entry points raise OutOfRange on bad
arguments instead of a bare Python error."""

import pytest

import precubical
from precubical import core, fbg, modelio, reductions
from precubical.errors import OutOfRange

REMOVED = (
    (precubical, "cube_morphism"),
    (precubical, "CubeMorphismImage"),
    (precubical, "restrict"),
    (precubical, "is_subcomplex"),
    (precubical, "greedy_reduce"),
    (core, "cube_morphism"),
    (core, "CubeMorphismImage"),
    (core, "restrict"),
    (core, "is_subcomplex"),
    (reductions, "greedy_reduce"),
    (core.Complex, "all_cells"),
    (core.Complex, "squares_on"),
)


def test_every_exported_name_resolves():
    for name in precubical.__all__:
        assert hasattr(precubical, name), name


@pytest.mark.parametrize("owner, name", REMOVED, ids=[f"{o.__name__}.{n}" for o, n in REMOVED])
def test_removed_names_stay_gone(owner, name):
    assert name not in precubical.__all__
    assert not hasattr(owner, name)


SQUARE = modelio.named_fixture("square")


@pytest.mark.parametrize(
    "call",
    [
        lambda: fbg.fundamental_bipartite_graph(SQUARE, max_paths="3"),
        lambda: reductions.auto_reduce(SQUARE, "recipe", "abc"),
        lambda: reductions.auto_reduce(SQUARE, "recipe", [1]),
        lambda: modelio.grid_with_holes(2, 2, [(0,)]),
        lambda: modelio.grid_with_holes(2.5, 2),
        lambda: modelio.grid_with_holes("2", 2),
        lambda: modelio.grid_with_holes(2, 2, None),
    ],
    ids=["max-paths-str", "recipe-str", "recipe-int-entry", "hole-1-tuple", "grid-float",
         "grid-str", "holes-none"],
)
def test_bad_arguments_raise_out_of_range(call):
    with pytest.raises(OutOfRange):
        call()
