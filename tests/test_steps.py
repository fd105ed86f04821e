"""One rule decides whether a step leaves a valid complex. A step whose
certificate holds is patched onto a copy as it stands, since its
conditions prove the result valid; `Complex.reduced` takes any other
step and refuses it exactly when `validate` reports its result."""

import random

import pytest

from precubical import core, modelio
from precubical.core import CellRef, Complex
from precubical.errors import OutOfRange
from precubical.reductions import EDGE_COLLAPSE, GREEDY_ATTEMPTS, check, run

from conftest import many_holes, random_glued_complex
from test_scheduler import fresh_tables
from test_working_copy import assert_unchanged, twin


def holding_steps(P):
    """Every (kind, cell id, a, b) whose certificate holds on P, under
    every entry of `GREEDY_ATTEMPTS`, with that certificate."""
    for kind, a, b in GREEDY_ATTEMPTS:
        for cid in P.cell_ids(1 if kind == EDGE_COLLAPSE else 2):
            cert = check(P, kind, cid, a, b)
            if cert.all_conditions_hold:
                yield (kind, cid, a, b), cert


def step_inputs():
    rng = random.Random(11)
    yield from (random_glued_complex(rng, 5, 16) for _ in range(300))
    yield from (modelio.grid_with_holes(n, n, many_holes(n)) for n in (4, 6, 8))


def test_a_holding_step_is_patched_valid():
    steps = 0
    for P in step_inputs():
        before = twin(P)
        for (kind, cid, a, b), cert in holding_steps(P):
            Q, applied = run(P, kind, cid, a, b, allow_empty_y=True)
            assert applied == cert
            assert core.validate(twin(Q)) == []
            assert Q._cofaces == fresh_tables(Q)
            assert Q == P.reduced(cert.removed, cert.redirected)
            steps += 1
        assert_unchanged(P, before)
    assert steps > 1000


def expected_result(P, removed, redirected):
    """The complex the step makes, built by the constructor from P's tables."""
    gone = {(c.degree, c.id) for c in removed}
    faces = {(n, c): dict(P.faces_of(n, c)) for n in P.degrees() if n > 0 for c in P.cell_ids(n)
             if (n, c) not in gone}
    for (e, _, k), v in redirected.items():
        if (1, e.id) not in gone:
            faces[(1, e.id)][(1, k)] = v.id
    cells = {n: [c for c in P.cell_ids(n) if (n, c) not in gone] for n in P.degrees()}
    return Complex(cells, faces)


def random_step(P, rng):
    """Up to four removed cells and two redirected edge ends, each to the
    end it has already with probability 1/2, drawn by rng."""
    cells = sorted(P.cell_set())
    removed = set(rng.sample(cells, rng.randint(0, min(4, len(cells)))))
    redirected = {}
    for _ in range(rng.randint(0, 2) if P.size(1) else 0):
        e, k = CellRef(1, rng.choice(P.cell_ids(1))), rng.randint(0, 1)
        v = P.face(e, 1, k) if rng.random() < 0.5 else rng.choice(P.cells(0))
        redirected[(e, 1, k)] = v
    return removed, redirected


def test_reduced_refuses_exactly_what_validate_reports():
    rng = random.Random(5)
    outcomes = {True: 0, False: 0}
    for _ in range(1200):
        P = random_glued_complex(rng, 4, 10)
        removed, redirected = random_step(P, rng)
        expected = expected_result(P, removed, redirected)
        valid = not core.validate(expected)
        before = twin(P)
        if valid:
            Q = P.reduced(removed, redirected)
            assert Q == expected
            assert Q._cofaces == fresh_tables(expected)
        else:
            with pytest.raises(OutOfRange, match="leaves an invalid complex"):
                P.reduced(removed, redirected)
        assert_unchanged(P, before)
        outcomes[valid] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_a_redirect_to_the_same_vertex_changes_nothing(square):
    step = {(CellRef(1, "eB"), 1, 0): CellRef(0, "w00")}
    assert square.reduced((), step) == modelio.named_fixture("square")
