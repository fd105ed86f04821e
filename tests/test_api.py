"""The public surface: every exported name resolves, the names that left
the library stay gone, and the entry points raise OutOfRange on bad
arguments instead of a bare Python error."""

import enum
import random

import pytest

import precubical
from precubical import core, fbg, modelio, reductions
from precubical.core import CellRef
from precubical.errors import OutOfRange, PrecubicalError, UnknownCell

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
        lambda: SQUARE.face(CellRef(2, "s"), [1], 0),
        lambda: SQUARE.face(CellRef(2, "s"), "1", 0),
        lambda: SQUARE.face(CellRef(2, "s"), 1, True),
        lambda: SQUARE.cells(True),
        lambda: SQUARE.cell_ids(1.0),
        lambda: SQUARE.size(True),
        lambda: core.Complex({enum.IntEnum("Degree", {"V": 0}).V: ["a"]}),
    ],
    ids=["max-paths-str", "max-paths-bool", "dipaths-max-paths-str", "dipaths-max-paths-bool",
         "dipaths-max-paths-0", "classes-max-paths-none", "classes-max-paths-bool",
         "recipe-str", "recipe-int-entry", "hole-1-tuple",
         "grid-float", "grid-str", "holes-none", "grid-bool", "hole-bool", "cube-bool",
         "cube-str", "cube-negative", "dot-name-int", "edges-at-2", "edges-at-minus-1",
         "edges-at-bool", "cells-str", "cells-bytes", "cells-none", "face-i-list", "face-i-str",
         "face-k-bool", "cells-degree-bool", "cell-ids-degree-float", "size-degree-bool",
         "cells-int-subclass"],
)
def test_bad_arguments_raise_out_of_range(call):
    with pytest.raises(OutOfRange):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: SQUARE.edges_at(CellRef(0, ["x"])),
        lambda: SQUARE.edges_at(CellRef(0, "x"), 0),
        lambda: SQUARE.face_table(CellRef(1, ["x"])),
        lambda: SQUARE.face_table(CellRef(1, "x")),
        lambda: SQUARE.coords(CellRef(1, ["x"])),
        lambda: SQUARE.coords(CellRef(1, "x")),
        lambda: SQUARE.reduced([CellRef(2, ["s"])]),
        lambda: fbg.fundamental_bipartite_graph(SQUARE).count(CellRef(0, "zz"), CellRef(0, "w11")),
        lambda: fbg.fundamental_bipartite_graph(SQUARE).count(CellRef(0, ["zz"]), CellRef(0, "w11")),
        lambda: SQUARE.edges_at(CellRef(1, "eL")),
        lambda: SQUARE.face(CellRef(True, "eL"), 1, 0),
        lambda: SQUARE.face_table(CellRef(1.0, "eL")),
        lambda: core.is_regular(SQUARE, CellRef(True, "eL")),
        lambda: SQUARE.reduced([CellRef(True, "eL")]),
    ],
    ids=["edges-at-unhashable", "edges-at-missing", "face-table-unhashable", "face-table-missing",
         "coords-unhashable", "coords-missing", "reduced-unhashable", "count-missing",
         "count-unhashable", "edges-at-edge", "face-bool-degree", "face-table-float-degree",
         "is-regular-bool-degree", "reduced-bool-degree"],
)
def test_readers_raise_unknown_cell_for_a_cell_the_complex_lacks(call):
    # an unhashable id, a degree that is not an exact int or, where a
    # vertex is read, a cell of another degree names no cell, as in `face`
    with pytest.raises(UnknownCell):
        call()


def test_has_no_cell_of_a_degree_that_is_not_an_exact_int():
    assert SQUARE.has(CellRef(1, "eL"))
    assert not SQUARE.has(CellRef(True, "eL")) and not SQUARE.has(CellRef(1.0, "eL"))


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


def mutated_tables(rng: random.Random, P: core.Complex):
    """The cells, faces and coords tables of P after one mutation: a faces
    or coords key that is not a (degree, id) pair, a str or bool face-table
    key, an int, bytes or tuple id, a str position, or a bool degree."""
    cells = {n: list(P.cell_ids(n)) for n in P.degrees()}
    faces = {(n, c): P.face_table(CellRef(n, c)) for n in P.degrees() if n > 0
             for c in P.cell_ids(n)}
    coords = P.coords_table()
    n, c = key = rng.choice(sorted(faces))
    table = faces[key]
    i, k = rng.choice(sorted(table))
    how = rng.randrange(8)
    if how == 0:
        bad = rng.choice([c, (n, c, 0), (n,)])
        if rng.random() < 0.5:
            faces[bad] = faces.pop(key)
        else:
            coords[bad] = (0, 0)
    elif how == 1:
        table[f"d{i}_{k}"] = table.pop((i, k))
    elif how == 2:
        table[rng.choice([(True, k), (i, bool(k))])] = table.pop((i, k))
    elif how in (3, 4, 5):
        d = rng.choice(sorted(cells))
        old = rng.choice(cells[d])
        new = (7, old.encode(), (old,))[how - 3]
        if rng.random() < 0.5:  # a new cell beside the others
            cells[d].append(new)
        else:  # the cell renamed everywhere
            cells[d] = [new if x == old else x for x in cells[d]]
            faces = {(m, new if (m, x) == (d, old) else x): {
                ik: new if (m - 1, f) == (d, old) else f for ik, f in t.items()}
                for (m, x), t in faces.items()}
    elif how == 6:
        coords[key] = rng.choice(["12", "ab", ""])
    else:
        if rng.random() < 0.5:
            cells[True] = cells.pop(1)
        else:
            faces[(True, c)] = faces.pop(key)
    return cells, faces, coords


def test_mutated_complexes_raise_only_precubical_errors():
    # The API's counterpart of the CLI's mutated documents: a complex built
    # through the API either is refused by the constructor or goes through
    # every entry point with no error but a PrecubicalError.
    rng = random.Random(2410)
    fixtures = [modelio.named_fixture(name) for name in modelio.FIXTURE_NAMES]
    outcomes = []
    for t in range(300):
        try:
            P = core.Complex(*mutated_tables(rng, fixtures[t % len(fixtures)]))
        except OutOfRange:
            outcomes.append("refused")
            continue
        for call in (core.validate, modelio.serialize, modelio.export_dot,
                     fbg.fundamental_bipartite_graph, lambda P: core.are_isomorphic(P, P),
                     reductions.auto_reduce, lambda P: [P.cells(n) for n in P.degrees()],
                     lambda P: [P.cell_ids(n) for n in P.degrees()]):
            try:
                call(P)
                outcomes.append("ok")
            except PrecubicalError as exc:
                outcomes.append(type(exc).__name__)
    assert {"refused", "ok", "ValidationFailed"} <= set(outcomes)
