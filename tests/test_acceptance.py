"""Acceptance suite. Each criterion prints one PASS line; any assertion
failure marks the criterion failed."""

import random
import time
from math import comb

import pytest

from precubical import core, fbg, modelio, recipes, reductions
from precubical.core import CellRef
from precubical.reductions import EDGE_COLLAPSE, SQUARE_ONE_FREE, SQUARE_TWO_FREE

from conftest import random_grid_complex
from reference import all_cells, is_subcomplex, restrict


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS ({text})")


def candidates(P):
    for s in P.cells(2):
        for b in (0, 1):
            yield SQUARE_ONE_FREE, s.id, None, b
        for a in (1, 2):
            for b in (0, 1):
                yield SQUARE_TWO_FREE, s.id, a, b
    for e in P.cells(1):
        for b in (0, 1):
            yield EDGE_COLLAPSE, e.id, None, b


def test_criterion_1_shared_memory_classes():
    start = time.perf_counter()
    P = modelio.grid_with_holes(3, 3, {(1, 1)})
    a, b = CellRef(0, "(0,0)"), CellRef(0, "(3,3)")
    paths = fbg.enumerate_dipaths(P, a, b)
    classes = fbg.dihomotopy_classes(P, a, b)
    elapsed = time.perf_counter() - start
    assert len(paths) == 20 == comb(6, 3)
    assert len(classes) == 2
    assert elapsed < 1.0
    report(1, f"20 paths, 2 classes in {elapsed:.3f}s")


def test_criterion_2_reduction_to_double_edge():
    start = time.perf_counter()
    P = modelio.named_fixture("shared_memory")
    Q, trail = reductions.auto_reduce(P)
    mapping = core.are_isomorphic(Q, modelio.named_fixture("double_edge"))
    elapsed = time.perf_counter() - start
    assert mapping is not None
    assert trail and all(c.fbg_guaranteed for c in trail)
    assert elapsed < 1.0
    report(2, f"greedy trail of {len(trail)} steps in {elapsed:.3f}s")


@pytest.fixture(scope="module")
def reduction_sweep():
    """All guaranteed-applicable reductions over 200 random instances,
    shared by criteria 3 and 4."""
    rng = random.Random(20240817)
    sweep = []
    start = time.perf_counter()
    for _ in range(200):
        P = random_grid_complex(rng, max_side=4)
        applied = []
        for kind, cell, a, b in candidates(P):
            cert = reductions.check(P, kind, cell, a, b)
            if cert.all_conditions_hold and cert.fbg_guaranteed:
                Q, _ = reductions.run(P, kind, cell, a, b)
                applied.append((kind, cell, a, b, cert, Q))
        sweep.append((P, applied))
    return sweep, time.perf_counter() - start


def test_criterion_3_fbg_preservation(reduction_sweep):
    sweep, build_time = reduction_sweep
    start = time.perf_counter()
    total = 0
    for P, applied in sweep:
        if not applied:
            continue
        before = fbg.fundamental_bipartite_graph(P)
        extremal_before = core.extremal(P)
        for kind, cell, a, b, cert, Q in applied:
            total += 1
            assert core.extremal(Q) == extremal_before, (kind, cell, a, b)
            after = fbg.fundamental_bipartite_graph(Q)
            assert fbg.fbg_equal(before, after), (kind, cell, a, b)
    elapsed = build_time + time.perf_counter() - start
    assert total > 200  # the sweep must actually exercise reductions
    assert elapsed < 60.0
    report(3, f"{total} guaranteed reductions preserve the FBG in {elapsed:.1f}s")


def test_criterion_4_structural_conservation(reduction_sweep):
    sweep, _ = reduction_sweep
    total = 0
    for P, applied in sweep:
        chi = core.euler_characteristic(P)
        for kind, cell, a, b, cert, Q in applied:
            total += 1
            assert core.validate(Q) == []
            assert core.euler_characteristic(Q) == chi
            if kind == EDGE_COLLAPSE:
                x = CellRef(1, cell)
                v = P.face(x, 1, 1 - b)
                outside = set(cert.y) | {x, v}
                common = restrict(
                    P, [c for c in all_cells(P) if c not in outside]
                )
                assert is_subcomplex(P, common)
                assert is_subcomplex(Q, common)
            else:
                assert is_subcomplex(P, Q)
            if kind == SQUARE_TWO_FREE:
                R = restrict(Q, cert.r_cells)
                assert is_subcomplex(Q, R)
                assert core.extremal(P) <= set(cert.r_cells)
    report(4, f"{total} reductions conserve structure")


def test_criterion_5_duality_commutation():
    rng = random.Random(99)
    checked = 0
    for _ in range(100):
        P = random_grid_complex(rng, max_side=3)
        op, tr = core.opposite(P), core.transpose(P)
        for e in P.cells(1):
            cert = reductions.check(P, EDGE_COLLAPSE, e.id, None, 1)
            if cert.all_conditions_hold:
                Q1, _ = reductions.edge_collapse(P, e.id, 1, allow_empty_y=True)
                Q2, _ = reductions.edge_collapse(op, e.id, 0, allow_empty_y=True)
                assert Q1 == core.opposite(Q2), e
                checked += 1
        for s in P.cells(2):
            for b in (0, 1):
                cert = reductions.check(P, SQUARE_TWO_FREE, s.id, 2, b)
                if cert.all_conditions_hold:
                    Q1, _ = reductions.square_two_free(
                        P, s.id, 2, b, allow_empty_y=True
                    )
                    Q2, _ = reductions.square_two_free(
                        tr, s.id, 1, b, allow_empty_y=True
                    )
                    assert Q1 == core.transpose(Q2), (s, b)
                    checked += 1
    assert checked > 50
    report(5, f"{checked} dual pairs agree cell-for-cell")


def test_criterion_6_refusal_correctness():
    P = modelio.named_fixture("double_edge")
    for b in (0, 1):
        cert = reductions.check(P, EDGE_COLLAPSE, "p", None, b)
        condition = cert.condition("i")
        assert not condition.holds
        assert condition.witnesses == (CellRef(1, "q"),)
    tail = modelio.named_fixture("square_plus_tail")
    cert = reductions.check(tail, SQUARE_ONE_FREE, "s", None, 0)
    condition = cert.condition("ii")
    assert not condition.holds
    assert condition.witnesses == (CellRef(1, "g"),)
    report(6, "illegal collapses refused with the expected witnesses")


def test_criterion_7_grid_recipes():
    start = time.perf_counter()
    for name in ("holes_example", "ordered_holes_example", "swiss_flag"):
        m, n, holes = modelio.GRID_FIXTURES[name]
        steps = recipes.grid_reduction_recipe(m, n, holes)
        P = modelio.named_fixture(name)
        Q, trail = reductions.auto_reduce(P, policy="recipe", recipe=steps)
        assert len(trail) == len(steps)
        assert all(c.all_conditions_hold and c.fbg_guaranteed for c in trail)
        assert Q.size(2) == 0
        before = fbg.fundamental_bipartite_graph(P)
        after = fbg.fundamental_bipartite_graph(Q)
        assert fbg.fbg_equal(before, after), name
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(7, f"three scripted grid reductions preserve the FBG in {elapsed:.1f}s")


def test_criterion_8_oracle_sanity():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            corner_a = CellRef(0, "(0,0)")
            corner_b = CellRef(0, f"({m},{n})")
            full = modelio.grid_with_holes(m, n)
            assert len(fbg.dihomotopy_classes(full, corner_a, corner_b)) == 1
            for i in range(m):
                for j in range(n):
                    holed = modelio.grid_with_holes(m, n, {(i, j)})
                    classes = fbg.dihomotopy_classes(holed, corner_a, corner_b)
                    assert len(classes) == 2, (m, n, i, j)
    report(8, "full grids give one class, one-hole grids give two")


def test_fbg_preservation_at_size():
    """Greedy and recipe reductions of grids where path enumeration
    cannot finish (C(32, 16) paths at 16x16) keep the four classes."""
    start = time.perf_counter()
    for n, policy in ((16, "greedy"), (32, "recipe")):
        holes = {(1, 1), (n - 2, n - 2)}
        P = modelio.grid_with_holes(n, n, holes)
        recipe = recipes.grid_reduction_recipe(n, n, holes) if policy == "recipe" else None
        Q, trail = reductions.auto_reduce(P, policy=policy, recipe=recipe)
        assert trail and all(c.fbg_guaranteed for c in trail)
        before = fbg.fundamental_bipartite_graph(P)
        assert before.count(CellRef(0, "(0,0)"), CellRef(0, f"({n},{n})")) == 4
        assert fbg.fbg_equal(before, fbg.fundamental_bipartite_graph(Q)), policy
    elapsed = time.perf_counter() - start
    report("at size", f"16x16 greedy and 32x32 recipe preserve 4 classes in {elapsed:.1f}s")
