"""The worklist scheduler against the full rescan it replaces, on
complexes that are not grids, the grid recipe against the sweep loop it
replaces, and the patched coface tables against tables built from
scratch."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from precubical import core, modelio, recipes, reductions
from precubical.core import Complex
from precubical.errors import OutOfRange
from precubical.reductions import (
    EDGE_COLLAPSE,
    GREEDY_ATTEMPTS,
    Step,
    auto_reduce,
    check,
    run,
)

from conftest import glued_complexes, many_holes, random_grid_complex


def rescan_reduce(P, attempts=GREEDY_ATTEMPTS):
    """The reference: rescan every cell under every attempt each step."""
    trail = []
    while True:
        for kind, a, b in attempts:
            degree = 1 if kind == EDGE_COLLAPSE else 2
            cell = next(
                (c for c in P.cells(degree)
                 if (cert := check(P, kind, c.id, a, b)).all_conditions_hold
                 and cert.fbg_guaranteed),
                None,
            )
            if cell is not None:
                P, cert = run(P, kind, cell.id, a, b)
                trail.append(cert)
                break
        else:
            return P, trail


def sweep_recipe(m, n, holes=()):
    """The reference for the grid recipe: sweep the squares left in turn,
    top-down then bottom-up, until two sweeps in a row take no step."""
    P = modelio.grid_with_holes(m, n, holes)._copy()
    holes = set(holes)
    steps = []
    remaining = [(i, j) for j in range(n - 1, -1, -1) for i in range(m) if (i, j) not in holes]

    def sweep(order, attempts):
        done = set()
        for (i, j) in order:
            sid = f"s({i},{j})"
            for kind, a, b in attempts:
                cert = check(P, kind, sid, a, b)
                if cert.all_conditions_hold and cert.fbg_guaranteed:
                    P._patch(cert._removed, cert._redirected)
                    steps.append(Step(kind, sid, b, a))
                    done.add((i, j))
                    break
        return done

    downward = True
    stalled = 0
    while remaining:
        order = remaining if downward else remaining[::-1]
        attempts = recipes._DOWNWARD_ATTEMPTS if downward else recipes._UPWARD_ATTEMPTS
        done = sweep(order, attempts)
        remaining = [sq for sq in remaining if sq not in done]
        stalled = 0 if done else stalled + 1
        if stalled >= 2:
            raise OutOfRange(f"no square elimination applies to any of {remaining}")
        downward = not downward

    for b in (0, 1):
        trail = list(reductions._schedule(P, [((EDGE_COLLAPSE, None, b),)]))
        steps.extend(Step(EDGE_COLLAPSE, cert.cell.id, b) for cert in trail)
    return steps


def fresh_tables(P):
    """P's coface tables, built from a copy that has none yet."""
    copy = Complex(
        {n: P.cell_ids(n) for n in P.degrees()},
        {(n, c.id): P.face_table(c) for n in P.degrees() if n > 0 for c in P.cells(n)},
    )
    copy.coface_tables()
    return copy._cofaces


attempt_tables = st.one_of(
    st.just(GREEDY_ATTEMPTS),
    st.just(GREEDY_ATTEMPTS[::-1]),
    st.sampled_from(GREEDY_ATTEMPTS).map(lambda entry: (entry,)),
    st.permutations(GREEDY_ATTEMPTS).map(tuple),
)


@settings(max_examples=150, deadline=None)
@given(glued_complexes(), attempt_tables)
def test_worklist_matches_rescan(P, attempts):
    Q = P._copy()
    trail = list(reductions._schedule(Q, [(entry,) for entry in attempts]))
    Q_ref, trail_ref = rescan_reduce(P, attempts)
    assert trail == trail_ref
    assert Q == Q_ref


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_worklist_matches_rescan_on_grids(seed):
    P = random_grid_complex(random.Random(seed), max_side=4)
    assert auto_reduce(P) == rescan_reduce(P)


@st.composite
def holed_grids(draw):
    """(m, n, holes) with sides 1 to 12, each square a hole with one
    probability of at most 0.5."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    p = draw(st.floats(0, 0.5))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return m, n, {(i, j) for i in range(m) for j in range(n) if rng.random() < p}


def recipe_or_refusal(make, *args):
    try:
        return make(*args)
    except OutOfRange as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(holed_grids())
def test_recipe_matches_sweep(grid):
    expected = recipe_or_refusal(sweep_recipe, *grid)
    assert recipe_or_refusal(recipes.grid_reduction_recipe, *grid) == expected


@settings(max_examples=100, deadline=None)
@given(glued_complexes(max_side=5, max_squares=16))
def test_patched_tables_equal_fresh_build(P):
    _, trail = auto_reduce(P)
    for cert in trail:
        P.coface_tables()
        before = fresh_tables(P)
        Q, _ = run(P, cert.kind, cert.cell.id, cert.params.get("a"), cert.params["b"])
        assert Q._cofaces is not None  # patched from P, not left to rebuild
        assert Q._cofaces == fresh_tables(Q)
        assert P._cofaces == before  # the parent's tables are untouched
        P = Q


def test_patched_tables_on_a_fixture_reduction():
    P = modelio.named_fixture("swiss_flag")
    _, trail = auto_reduce(P)
    assert len(trail) == 34
    for cert in trail:
        Q, _ = run(P, cert.kind, cert.cell.id, cert.params.get("a"), cert.params["b"])
        assert Q._cofaces == fresh_tables(Q)
        P = Q


def test_each_step_is_certified_once(monkeypatch):
    """Greedy and recipe generation apply the certificate their check
    passed, so `is_regular` runs once per check and never again."""
    calls = {"check": 0, "is_regular": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(core, "is_regular")
    counted(reductions, "check")
    _, trail = auto_reduce(modelio.named_fixture("swiss_flag"))
    steps = recipes.grid_reduction_recipe(8, 8, {(1, 1), (6, 6)})
    assert trail and steps and calls["check"] > 0
    assert calls["is_regular"] == calls["check"]


# Checks per applied step on two-hole n x n grids: recipe generation
# 153/88, 422/312 and 1302/1144 checks/steps for n = 8, 16, 32, greedy
# 245/78, 955/286 and 4435/1086. A cheaper check must not mean more of them.
@pytest.mark.parametrize("n", [8, 16, 32])
def test_checks_per_step_stay_bounded(monkeypatch, n):
    calls = [0]
    original = reductions.check

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(reductions, "check", counted)
    holes = {(1, 1), (n - 2, n - 2)}
    steps = recipes.grid_reduction_recipe(n, n, holes)
    assert 0 < calls[0] <= 2 * len(steps)
    calls[0] = 0
    _, trail = auto_reduce(modelio.grid_with_holes(n, n, holes))
    assert 0 < calls[0] <= 5 * len(trail)


# Checks of greedy on n x n grids with many holes (each square one with
# probability 0.15, random.Random(3)): 2862, 11569 and 25073 checks on
# 1055, 4073 and 9077 cells for n = 16, 32, 48, about 2.8 per cell. With
# checks that touch only the star of their cell and a cell set built for
# none of them, this keeps greedy linear on the one input family that was
# quadratic.
@pytest.mark.parametrize("n", [16, 32])
def test_greedy_checks_grow_linearly_on_many_hole_grids(monkeypatch, n):
    calls = [0]
    original = reductions.check

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(reductions, "check", counted)
    P = modelio.grid_with_holes(n, n, many_holes(n))
    cells = sum(P.size(d) for d in P.degrees())
    _, trail = auto_reduce(P)
    assert trail and 0 < calls[0] <= 3 * cells
