"""Certificates keep what a check found as ids and build their fields on
first read. R is a view of the complex the check read: it must give that
complex's cells, less R's exclusions, however late it is read and however
far the working copy has been patched since."""

import dataclasses

import pytest
from hypothesis import given, settings

from precubical import modelio, recipes, reductions
from precubical.core import Complex
from precubical.errors import OutOfRange
from precubical.reductions import SQUARE_TWO_FREE, auto_reduce, check

from conftest import glued_complexes, many_holes

FIELDS = ("kind", "cell", "params", "conditions", "removed", "redirected", "y", "r_cells",
          "fbg_guaranteed", "all_conditions_hold")


def many_hole_grid(n):
    return modelio.grid_with_holes(n, n, many_holes(n))


def expected_r(Q: Complex, cert):
    """R of a square-two-free certificate, from scratch on Q, the complex
    it was checked on: every cell but x, its dropped edge d_{3-a}^b x, the
    kept edge d_a^{1-b} x, the vertex v = d_1^{1-b} of the dropped edge,
    and Y, the other edges y with d_1^{1-b} y = v."""
    x, a, b = cert.cell, cert.params["a"], cert.params["b"]
    e_keep, e_drop = Q.face(x, a, 1 - b), Q.face(x, 3 - a, b)
    v_drop = Q.face(e_drop, 1, 1 - b)
    y = [e for e in Q.edges_at(v_drop, 1 - b) if e != e_drop]
    return Q.cell_set() - {x, e_drop, e_keep, v_drop, *y}


def assert_r_is_a_snapshot(P: Complex):
    """Run greedy on P, keeping every certificate its checks return,
    refused or applied. Once the chain has ended, replay the trail with
    `Complex.reduced`, compare each certificate field by field with a
    check run again on the complex its check read, and compare the R of
    each square-two-free certificate with R computed on that complex."""
    seen = []
    original = reductions.check

    def kept(*args):
        seen.append(original(*args))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reductions, "check", kept)
        result, trail = auto_reduce(P)
    Q, step, compared = P, 0, 0
    for cert in seen:
        again = check(Q, cert.kind, cert.cell.id, cert.params.get("a"), cert.params["b"])
        for field in FIELDS:
            assert getattr(cert, field) == getattr(again, field), field
        if cert.kind == SQUARE_TWO_FREE:
            assert cert.r_cells == expected_r(Q, cert)
            compared += 1
        if step < len(trail) and cert is trail[step]:
            Q = Q.reduced(cert.removed, cert.redirected)
            step += 1
    assert step == len(trail) and Q == result
    return compared


@pytest.mark.parametrize("n", [6, 9, 12, 16])
def test_r_read_after_a_greedy_chain_is_its_check_time_snapshot(n):
    assert assert_r_is_a_snapshot(many_hole_grid(n)) > 0


@settings(max_examples=60, deadline=None)
@given(glued_complexes())
def test_r_snapshot_on_glued_complexes(P):
    assert_r_is_a_snapshot(P)


@pytest.mark.parametrize("n", [6, 10])
def test_r_of_a_check_on_a_public_complex(n):
    P = many_hole_grid(n)
    certs = [check(P, SQUARE_TWO_FREE, s, a, b)
             for s in P.cell_ids(2) for a in (1, 2) for b in (0, 1)]
    Q, trail = auto_reduce(P)  # reduces a copy; P is never patched
    assert trail and Q != P
    for cert in certs:
        assert cert.r_cells == expected_r(P, cert)


@pytest.fixture
def cell_sets(monkeypatch):
    """The number of calls of Complex.cell_set, in a one-entry list."""
    calls = [0]
    original = Complex.cell_set

    def counted(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(Complex, "cell_set", counted)
    return calls


def test_chains_never_build_a_cell_set(cell_sets):
    n = 32
    _, trail = auto_reduce(many_hole_grid(n))
    assert trail
    with pytest.raises(OutOfRange, match="no square elimination"):  # after phases of checks
        recipes.grid_reduction_recipe(n, n, many_holes(n))
    assert recipes.grid_reduction_recipe(n, n, {(1, 1), (n - 2, n - 2)})
    assert cell_sets[0] == 0
    cert = check(many_hole_grid(4), SQUARE_TWO_FREE, "s(0,0)", 2, 0)
    cert.r_cells
    cert.r_cells  # built once, on first read
    assert cell_sets[0] == 1


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize("field", FIELDS)
def test_certificate_fields_cannot_be_assigned(field, read_first):
    cert = check(modelio.named_fixture("square_plus_tail"), SQUARE_TWO_FREE, "s", 1, 0)
    before = getattr(cert, field) if read_first else None
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cert, field, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(cert, field)
    if read_first:
        assert getattr(cert, field) is before
    assert getattr(cert, field) is not None
