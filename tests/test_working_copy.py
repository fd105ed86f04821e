"""Reduction chains patch one private working copy of their input: no
caller sees a complex change, and the copy is made once per chain, not
once per step."""

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


def test_reduced_takes_a_step_that_keeps_the_complex_valid():
    P = modelio.named_fixture("square_plus_tail")
    Q = P.reduced({CellRef(0, "t")}, {(CellRef(1, "g"), 1, 0): CellRef(0, "w00")})
    assert Q.face(CellRef(1, "g"), 1, 0) == CellRef(0, "w00") and not core.validate(Q)
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
    assert len(copies) == 1  # every phase runs on one working copy
    copies.clear()
    _, trail = auto_reduce(two_hole_grid(12), "recipe", steps)
    assert len(trail) == len(steps) > 100 and len(copies) == 1
