"""Reduction chains patch one private working copy of their input: no
caller sees a complex change, and the copy is made once per chain, not
once per step."""

import pytest
from hypothesis import given, settings

from precubical import modelio, recipes
from precubical.core import Complex
from precubical.reductions import Step, auto_reduce, greedy_reduce

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
    from it shares its face tables and coface lists."""
    P.build_cofaces()
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
    """Run greedy, greedy `auto_reduce` and the replay of the greedy trail on P."""
    Q, trail = greedy_reduce(P)
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
    _, trail = greedy_reduce(P)
    chain = [built(P)]
    for cert in trail:
        chain.append(built(chain[-1].reduced(cert.removed, cert.redirected)))
    befores = [twin(Q) for Q in chain]
    for Q in chain:  # a second chain from every complex of the first
        greedy_reduce(Q)
    for Q, before in zip(chain, befores):
        assert_unchanged(Q, before)


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
    _, trail = greedy_reduce(P)
    assert len(trail) > 100 and len(copies) == 1


def test_recipe_generation_and_replay_copy_once_per_chain(copies):
    steps = recipes.grid_reduction_recipe(12, 12, two_holes(12))
    assert len(copies) == 1  # every phase runs on one working copy
    copies.clear()
    _, trail = auto_reduce(two_hole_grid(12), "recipe", steps)
    assert len(trail) == len(steps) > 100 and len(copies) == 1
