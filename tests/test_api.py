"""The public surface: every exported name resolves, the names that left
the library stay gone, and the entry points raise OutOfRange on bad
arguments instead of a bare Python error."""

import pytest

import precubical
from precubical import core, fbg, modelio, reductions
from precubical.core import CellRef
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
        lambda: fbg.fundamental_bipartite_graph(SQUARE, max_paths=True),
        lambda: fbg.enumerate_dipaths(SQUARE, CellRef(0, "w00"), CellRef(0, "w11"), max_paths="3"),
        lambda: fbg.enumerate_dipaths(SQUARE, CellRef(0, "w00"), CellRef(0, "w11"), max_paths=True),
        lambda: fbg.enumerate_dipaths(SQUARE, CellRef(0, "w00"), CellRef(0, "w11"), max_paths=0),
        lambda: fbg.dihomotopy_classes(SQUARE, CellRef(0, "w00"), CellRef(0, "w11"), max_paths=None),
        lambda: fbg.dihomotopy_classes(SQUARE, CellRef(0, "w00"), CellRef(0, "w11"), max_paths=True),
        lambda: reductions.auto_reduce(SQUARE, "recipe", "abc"),
        lambda: reductions.auto_reduce(SQUARE, "recipe", [1]),
        lambda: modelio.grid_with_holes(2, 2, [(0,)]),
        lambda: modelio.grid_with_holes(2.5, 2),
        lambda: modelio.grid_with_holes("2", 2),
        lambda: modelio.grid_with_holes(2, 2, None),
        lambda: modelio.grid_with_holes(True, 2),
        lambda: modelio.grid_with_holes(2, 2, [(True, 0)]),
        lambda: core.standard_cube(True),
        lambda: core.standard_cube("2"),
        lambda: core.standard_cube(-1),
        lambda: modelio.export_dot(SQUARE, 5),
        lambda: SQUARE.edges_at(CellRef(0, "w01"), 2),
        lambda: SQUARE.edges_at(CellRef(0, "w01"), -1),
        lambda: SQUARE.edges_at(CellRef(0, "w01"), True),
        lambda: core.Complex({0: "ab"}),
        lambda: core.Complex({0: b"ab"}),
        lambda: core.Complex(None),
    ],
    ids=["max-paths-str", "max-paths-bool", "dipaths-max-paths-str", "dipaths-max-paths-bool",
         "dipaths-max-paths-0", "classes-max-paths-none", "classes-max-paths-bool",
         "recipe-str", "recipe-int-entry", "hole-1-tuple",
         "grid-float", "grid-str", "holes-none", "grid-bool", "hole-bool", "cube-bool",
         "cube-str", "cube-negative", "dot-name-int", "edges-at-2", "edges-at-minus-1",
         "edges-at-bool", "cells-str", "cells-bytes", "cells-none"],
)
def test_bad_arguments_raise_out_of_range(call):
    with pytest.raises(OutOfRange):
        call()


@pytest.mark.parametrize(
    "value, shown",
    [
        (SQUARE, "Complex({0: 4, 1: 4, 2: 1})"),
        (reductions.check(SQUARE, reductions.SQUARE_TWO_FREE, "s", 1, 0),
         "ReductionCertificate(kind='square-two-free', cell=CellRef(2, 's'), params="),
    ],
    ids=["Complex", "ReductionCertificate"],
)
def test_repr_and_equality_with_another_type(value, shown):
    assert repr(value).startswith(shown)
    assert value.__eq__(object()) is NotImplemented
    assert value != object()
