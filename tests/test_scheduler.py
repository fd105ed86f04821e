"""The worklist scheduler against the full rescan it replaces, on
complexes that are not grids, and the patched coface tables against
tables built from scratch."""

import random

from hypothesis import given, settings, strategies as st

from precubical import core, modelio, recipes, reductions
from precubical.core import Complex
from precubical.reductions import (
    EDGE_COLLAPSE,
    GREEDY_ATTEMPTS,
    check,
    greedy_reduce,
    run,
)

from conftest import glued_complexes, random_grid_complex


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


def fresh_tables(P):
    """P's coface tables, built from a copy that has none yet."""
    copy = Complex(
        {n: P.cell_ids(n) for n in P.degrees()},
        {(n, c.id): P.face_table(c) for n in P.degrees() if n > 0 for c in P.cells(n)},
    )
    copy.build_cofaces()
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
    Q, trail = greedy_reduce(P, attempts)
    Q_ref, trail_ref = rescan_reduce(P, attempts)
    assert trail == trail_ref
    assert Q == Q_ref


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_worklist_matches_rescan_on_grids(seed):
    P = random_grid_complex(random.Random(seed), max_side=4)
    assert greedy_reduce(P) == rescan_reduce(P)


@settings(max_examples=100, deadline=None)
@given(glued_complexes(max_side=5, max_squares=16))
def test_patched_tables_equal_fresh_build(P):
    _, trail = greedy_reduce(P)
    for cert in trail:
        P.build_cofaces()
        before = fresh_tables(P)
        Q, _ = run(P, cert.kind, cert.cell.id, cert.params.get("a"), cert.params["b"])
        assert Q._cofaces is not None  # patched from P, not left to rebuild
        assert Q._cofaces == fresh_tables(Q)
        assert P._cofaces == before  # the parent's tables are untouched
        P = Q


def test_patched_tables_on_a_fixture_reduction():
    P = modelio.named_fixture("swiss_flag")
    _, trail = greedy_reduce(P)
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
    _, trail = greedy_reduce(modelio.named_fixture("swiss_flag"))
    steps = recipes.grid_reduction_recipe(8, 8, {(1, 1), (6, 6)})
    assert trail and steps and calls["check"] > 0
    assert calls["is_regular"] == calls["check"]
