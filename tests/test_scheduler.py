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


def rescan_reduce(P, rows, rank=None):
    """The reference: each step, try every live (row, cell) pair, least
    by rank, row and cell id, and apply the first entry of the first pair
    that passes."""
    trail = []
    while True:
        pairs = sorted(
            (index if rank is None else rank[c.id], index, c.id)
            for index, row in enumerate(rows)
            for c in P.cells(1 if row[0][0] == EDGE_COLLAPSE else 2)
        )
        for _, index, cid in pairs:
            cert = next((cert for kind, a, b in rows[index]
                         if (cert := check(P, kind, cid, a, b)).all_conditions_hold
                         and cert.fbg_guaranteed), None)
            if cert is not None:
                P, cert = run(P, cert.kind, cid, cert.params.get("a"), cert.params["b"])
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
    rows = [(entry,) for entry in attempts]
    trail = list(reductions._schedule(Q, rows))
    Q_ref, trail_ref = rescan_reduce(P, rows)
    assert trail == trail_ref
    assert Q == Q_ref


@st.composite
def grouped_rows(draw):
    """Attempt rows of one degree each, most of several entries: the
    entries of each degree, permuted, cut into consecutive rows, and the
    rows of both degrees shuffled together."""
    rows = []
    for degree in (1, 2):
        entries = [entry for entry in GREEDY_ATTEMPTS
                   if (entry[0] == EDGE_COLLAPSE) == (degree == 1)]
        entries = draw(st.permutations(entries))[:draw(st.integers(1, len(entries)))]
        cuts = sorted(draw(st.sets(st.integers(1, len(entries) - 1), max_size=2))
                      if len(entries) > 1 else ())
        rows += [tuple(entries[i:j]) for i, j in zip((0, *cuts), (*cuts, len(entries)))]
    return draw(st.permutations(rows))


@settings(max_examples=150, deadline=None)
@given(glued_complexes(), grouped_rows(), st.booleans(), st.data())
def test_rows_of_several_entries_match_rescan(P, rows, ranked, data):
    """A cell starts on the heap under the first row of its degree only,
    and a failed row passes it on to the next row of that degree: on rows
    of several entries, with or without a rank (ties included), the trail
    is the rescan's."""
    rank = None
    if ranked:
        ids = sorted({*P.cell_ids(1), *P.cell_ids(2)})
        rank = dict(zip(ids, data.draw(st.lists(st.integers(-3, 3), min_size=len(ids),
                                                max_size=len(ids)))))
    Q = P._copy()
    trail = list(reductions._schedule(Q, rows, rank))
    Q_ref, trail_ref = rescan_reduce(P, rows, rank)
    assert trail == trail_ref
    assert Q == Q_ref


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_worklist_matches_rescan_on_grids(seed):
    P = random_grid_complex(random.Random(seed), max_side=4)
    assert auto_reduce(P) == rescan_reduce(P, [(entry,) for entry in GREEDY_ATTEMPTS])


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


@pytest.fixture
def check_calls(monkeypatch):
    """A one-item list that counts the calls to `reductions.check`."""
    calls = [0]
    original = reductions.check

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(reductions, "check", counted)
    return calls


# Checks and steps, exact, of recipe generation and of greedy on two-hole
# n x n grids, and of greedy on swiss_flag (n None). A cheaper check must
# not mean more of them, and greedy's heap, which holds one pair per cell
# and passes a failed cell on to its next row, must check what it checked
# with every (row, cell) pair pushed from the start.
@pytest.mark.parametrize("n, recipe, greedy", [
    (8, (156, 88), (245, 78)),
    (16, (425, 312), (955, 286)),
    (32, (1305, 1144), (4435, 1086)),
    (None, None, (129, 34)),
], ids=["8", "16", "32", "swiss_flag"])
def test_checks_per_step_stay_bounded(check_calls, n, recipe, greedy):
    if n is None:
        P = modelio.named_fixture("swiss_flag")
    else:
        holes = {(1, 1), (n - 2, n - 2)}
        steps = recipes.grid_reduction_recipe(n, n, holes)
        assert (check_calls[0], len(steps)) == recipe
        assert 0 < check_calls[0] <= 2 * len(steps)
        check_calls[0] = 0
        P = modelio.grid_with_holes(n, n, holes)
    _, trail = auto_reduce(P)
    assert (check_calls[0], len(trail)) == greedy
    assert 0 < check_calls[0] <= 5 * len(trail)


# Checks of greedy on n x n grids with many holes (each square one with
# probability 0.15, random.Random(3)): 2862, 11569 and 25073 checks on
# 1055, 4073 and 9077 cells for n = 16, 32, 48, about 2.8 per cell. With
# checks that touch only the star of their cell and a cell set built for
# none of them, this keeps greedy linear on the one input family that was
# quadratic.
@pytest.mark.parametrize("n", [16, 32])
def test_greedy_checks_grow_linearly_on_many_hole_grids(check_calls, n):
    P = modelio.grid_with_holes(n, n, many_holes(n))
    cells = sum(P.size(d) for d in P.degrees())
    _, trail = auto_reduce(P)
    assert trail and 0 < check_calls[0] <= 3 * cells
