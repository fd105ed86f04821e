"""Reduction chains patch one private working copy: no caller sees a
complex change, greedy and replay copy their input once per chain, not
once per step, and the recipe generator patches the grid it built."""

import random

import pytest
from hypothesis import given, settings

from precubical import core, modelio, recipes
from precubical.core import CellRef, Complex, standard_cube
from precubical.errors import DimensionUnsupported, OutOfRange, UnknownCell
from precubical.reductions import Step, auto_reduce

from conftest import glued_complexes
from test_scheduler import fresh_tables

HOLED_SIDES = (4, 5, 8)


def two_holes(n):
    return {(1, 1), (n - 2, n - 2)}


def two_hole_grid(n):
    return modelio.grid_with_holes(n, n, two_holes(n))


def path_complex(length):
    """The directed path x0 -> x1 -> ... of `length` edges."""
    return Complex(
        {0: [f"x{t}" for t in range(length + 1)], 1: [f"e{t}" for t in range(length)]},
        {(1, f"e{t}"): {(1, 0): f"x{t}", (1, 1): f"x{t + 1}"} for t in range(length)},
    )


def built(P):
    """P with its coface tables built, so that a reduction chain starting
    from it shares its face-table dicts; the chain's working copy gets its
    own coface lists."""
    P.coface_tables()
    return P


def twin(P):
    """An independent complex with P's cells and face tables."""
    return Complex(
        {n: P.cell_ids(n) for n in P.degrees()},
        {(n, c): dict(P.faces_of(n, c)) for n in P.degrees() if n > 0 for c in P.cell_ids(n)},
    )


def assert_unchanged(P, before: Complex):
    """P still looks, to a caller, like `before`, its twin taken earlier."""
    assert P == before
    assert all(P.cell_ids(n) == before.cell_ids(n) for n in {*P.degrees(), *before.degrees()})
    assert type(P.cell_set()) is frozenset
    assert P.cell_set() == before.cell_set()
    assert P._cofaces == fresh_tables(before)


def chains(P):
    """Run greedy `auto_reduce` twice and the replay of the greedy trail on P."""
    Q, trail = auto_reduce(P)
    auto_reduce(P)
    steps = [Step.of(c) for c in trail]
    auto_reduce(P, "recipe", steps)
    return Q, trail


@settings(max_examples=60, deadline=None)
@given(glued_complexes(max_side=5, max_squares=16))
def test_chains_leave_a_glued_input_unchanged(P):
    before = twin(P)
    chains(built(P))
    assert_unchanged(P, before)


@pytest.mark.parametrize("n", HOLED_SIDES)
def test_chains_leave_a_grid_input_unchanged(n):
    P = built(two_hole_grid(n))
    before = twin(P)
    Q, _ = chains(P)
    holes = two_holes(n)
    steps = recipes.grid_reduction_recipe(n, n, holes)
    assert holes == two_holes(n)
    R, _ = auto_reduce(P, "recipe", steps)
    assert_unchanged(P, before)
    assert Q.size(2) == R.size(2) == 0


@settings(max_examples=40, deadline=None)
@given(glued_complexes(max_side=5, max_squares=16))
def test_public_reduced_chain_leaves_every_complex_unchanged(P):
    _, trail = auto_reduce(P)
    chain = [built(P)]
    for cert in trail:
        chain.append(built(chain[-1].reduced(cert.removed, cert.redirected)))
    befores = [twin(Q) for Q in chain]
    for Q in chain:  # a second chain from every complex of the first
        auto_reduce(Q)
    for Q, before in zip(chain, befores):
        assert_unchanged(Q, before)


# Steps no reduction makes, on square_plus_tail: a square s on edges eB,
# eL, eR, eT and a tail edge g from t to w10.
REFUSED_STEPS = {
    "vertex-of-a-kept-edge": ({CellRef(0, "t")}, {}, OutOfRange),
    "edge-of-a-kept-square": ({CellRef(1, "eB")}, {}, OutOfRange),
    "move-to-a-ghost": ((), {(CellRef(1, "g"), 1, 0): CellRef(0, "ghost")}, UnknownCell),
    "unknown-edge": ({CellRef(1, "nope")}, {}, UnknownCell),
    "not-an-edge-end": ((), {(CellRef(1, "g"), 2, 0): CellRef(0, "w00")}, OutOfRange),
    "move-a-square-edge": ((), {(CellRef(1, "eB"), 1, 0): CellRef(0, "t")}, OutOfRange),
    "move-to-a-removed-vertex": (
        {CellRef(0, "t")}, {(CellRef(1, "g"), 1, 0): CellRef(0, "t")}, OutOfRange),
    "float-end": ((), {(CellRef(1, "g"), 1.0, 0.0): CellRef(0, "w00")}, OutOfRange),
    "bool-end": ((), {(CellRef(1, "g"), True, True): CellRef(0, "w00")}, OutOfRange),
}


@pytest.mark.parametrize("tables", [True, False], ids=["built", "unbuilt"])
@pytest.mark.parametrize("name", REFUSED_STEPS)
def test_reduced_refuses_a_step_no_reduction_makes(name, tables):
    P = modelio.named_fixture("square_plus_tail")
    if tables:
        built(P)
    before = twin(P)
    removed, redirected, error = REFUSED_STEPS[name]
    with pytest.raises(error):
        P.reduced(removed, redirected)
    assert_unchanged(P, before)


def test_reduced_refuses_dimension_three():
    with pytest.raises(DimensionUnsupported):
        standard_cube(3).reduced({CellRef(3, "***")})


def test_reduced_names_an_unhashable_redirected_edge_as_unknown():
    # given as (key, vertex) pairs, a key whose edge id is unhashable names no cell
    P = modelio.named_fixture("square_plus_tail")
    before = twin(P)
    with pytest.raises(UnknownCell, match=r"^no cell \['x'\] of degree 1$"):
        P.reduced([CellRef(0, "t")], [((CellRef(1, ["x"]), 1, 0), CellRef(0, "w00"))])
    assert_unchanged(P, before)


def test_reduced_takes_redirects_as_pairs():
    P = modelio.named_fixture("square_plus_tail")
    step = {(CellRef(1, "g"), 1, 0): CellRef(0, "w00")}
    assert P.reduced({CellRef(0, "t")}, list(step.items())) == P.reduced({CellRef(0, "t")}, step)


def test_reduced_takes_a_step_that_keeps_the_complex_valid():
    P = modelio.named_fixture("square_plus_tail")
    Q = P.reduced({CellRef(0, "t")}, {(CellRef(1, "g"), 1, 0): CellRef(0, "w00")})
    assert Q.face(CellRef(1, "g"), 1, 0) == CellRef(0, "w00") and not core.validate(Q)
    assert Q._cofaces == fresh_tables(Q)


def test_cell_ids_keep_the_given_order_less_the_removed_cells():
    square = modelio.named_fixture("square")
    given = {n: square.cell_ids(n)[::-1] for n in square.degrees()}  # out of sorted order
    P = Complex(given, {(n, c.id): square.face_table(c) for n in (1, 2) for c in square.cells(n)})
    Q = P.reduced({CellRef(2, "s"), CellRef(1, "eR")})
    for R in (Q, Q._copy()):
        assert [R.cell_ids(n) for n in (0, 1, 2)] == [given[0], ("eT", "eB", "eL"), ()]


# The `repeated-edge` complex of test_core: the square s has the edge a
# at d_1^0 and at d_2^0. Adding t, a second square with a at d_2^0,
# puts two squares in the coface list of a.
REPEATED_SIDE_CELLS = {0: ["p", "q", "r"], 1: ["a", "b", "d"], 2: ["s"]}
REPEATED_SIDE_FACES = {
    (1, "a"): {(1, 0): "p", (1, 1): "q"},
    (1, "b"): {(1, 0): "q", (1, 1): "r"},
    (1, "d"): {(1, 0): "q", (1, 1): "r"},
    (2, "s"): {(1, 0): "a", (1, 1): "b", (2, 0): "a", (2, 1): "d"},
}
SECOND_SQUARE_CELLS = {0: ["u", "z"], 1: ["l", "m", "top"], 2: ["t"]}
SECOND_SQUARE_FACES = {
    (1, "l"): {(1, 0): "p", (1, 1): "u"},
    (1, "m"): {(1, 0): "q", (1, 1): "z"},
    (1, "top"): {(1, 0): "u", (1, 1): "z"},
    (2, "t"): {(1, 0): "l", (1, 1): "m", (2, 0): "a", (2, 1): "top"},
}


@pytest.mark.parametrize("with_t, squares", [(False, "s"), (True, "s"), (True, "t"), (True, "st")],
                         ids=["s-alone", "s-beside-t", "t-beside-s", "both"])
def test_removing_a_square_with_a_repeated_side_unlinks_it_once(with_t, squares):
    """The patch takes s out of the coface list of a once, though s meets
    a at two positions, and leaves the other squares there."""
    cells, faces = REPEATED_SIDE_CELLS, REPEATED_SIDE_FACES
    if with_t:
        cells = {n: ids + SECOND_SQUARE_CELLS[n] for n, ids in cells.items()}
        faces = {**faces, **SECOND_SQUARE_FACES}
    P = Complex(cells, faces)
    assert core.validate(P) == []
    Q = P.reduced({CellRef(2, s) for s in squares})
    assert Q.size(2) == P.size(2) - len(squares)
    assert Q._cofaces == fresh_tables(Q)


@pytest.fixture
def copies(monkeypatch):
    """One entry per call of Complex._copy, the working-copy helper."""
    calls = []
    original = Complex._copy

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Complex, "_copy", counted)
    return calls


@pytest.mark.parametrize("make", [lambda: path_complex(1500), lambda: two_hole_grid(12)])
def test_greedy_copies_once(copies, make):
    P = make()
    _, trail = auto_reduce(P)
    assert len(trail) > 100 and len(copies) == 1


def test_recipe_generation_and_replay_copy_once_per_chain(copies):
    steps = recipes.grid_reduction_recipe(12, 12, two_holes(12))
    assert len(copies) == 0  # every phase patches the grid the generator built
    copies.clear()
    _, trail = auto_reduce(two_hole_grid(12), "recipe", steps)
    assert len(trail) == len(steps) > 100 and len(copies) == 1


def grid_shapes(m, n):
    """The hole sets the suite and the benchmark build m x n grids with:
    none, two (where they fit), each square a hole with probability 0.15
    (drawn as `conftest.many_holes` draws them), and every square a hole,
    which leaves no degree 2."""
    rng = random.Random(3)
    yield set()
    if min(m, n) >= 2:
        yield {(1, 1), (m - 2, n - 2)}
    yield {(i, j) for i in range(m) for j in range(n) if rng.random() < 0.15}
    yield {(i, j) for i in range(m) for j in range(n)}


GRID_SIZES = [(n, n) for n in range(1, 33)] + [
    (m, n) for m in range(5, 9) for n in range(5, 9) if m != n]


@pytest.mark.parametrize("m, n", GRID_SIZES, ids=[f"{m}x{n}" for m, n in GRID_SIZES])
def test_adopted_grid_tables_equal_the_face_reports(m, n):
    """The recipe generator adopts the grid it builds with no face report:
    that grid is valid, and its tables are those the report would build."""
    for holes in grid_shapes(m, n):
        assert core.validate(modelio.grid_with_holes(m, n, holes)) == []
        P = modelio.grid_with_holes(m, n, holes)
        assert P._adopt() is P
        assert P._cofaces == fresh_tables(P)


def test_recipe_generation_runs_no_face_report_and_no_copy(monkeypatch, copies):
    reports = []
    original = core.validate
    monkeypatch.setattr(core, "validate", lambda P: reports.append(P) or original(P))
    steps = recipes.grid_reduction_recipe(8, 8, two_holes(8))
    assert len(steps) > 50 and reports == [] and copies == []
