"""Certificates, greedy trails, recipes, FBG tables, validation reports
and the records of non-grid complexes must match the recorded golden file exactly. Regenerate it only
for an intended change of output: `PYTHONPATH=src python3 tests/golden/make_golden.py`."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden"))

import make_golden  # noqa: E402


@pytest.fixture(scope="module")
def golden():
    with open(make_golden.GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_sweep_certificates(golden):
    assert make_golden.sweep_record() == golden["sweep"]


@pytest.mark.parametrize("label", [label for label, _ in make_golden.greedy_inputs()])
def test_greedy_trail(golden, label):
    P = dict(make_golden.greedy_inputs())[label]
    assert make_golden.greedy_record(P) == golden["greedy"][label]


@pytest.mark.parametrize("n", make_golden.GRID_SIDES)
def test_recipe_steps(golden, n):
    assert make_golden.recipe_record(n) == golden["recipes"][f"grid {n}"]


def test_fbg_tables(golden):
    records = dict(golden["fbg"])
    for label, P in make_golden.fbg_inputs():
        assert make_golden.fbg_record(P) == records.pop(label), label
    assert not records


def test_validate_reports(golden):
    records = dict(golden["validate"])
    for label, P in make_golden.validate_inputs():
        assert make_golden.validate_record(P) == records.pop(label), label
    assert not records


def test_glued_complexes(golden):
    records = dict(golden["glued"])
    for label, P in make_golden.glued_inputs():
        assert make_golden.glued_record(P) == records.pop(label), label
    assert not records
