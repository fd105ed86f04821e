"""Record the reduction outputs that refactors must reproduce exactly.

Run from the root of a checkout:

    PYTHONPATH=src python3 tests/golden/make_golden.py

It writes tests/golden/golden.json with

- "sweep": for each of the 200 random instances of the acceptance
  suite's reduction sweep, the sha256 of the check-mode certificates of
  every candidate reduction, rendered with the CLI's certificate JSON;
- "greedy": for every named fixture, for grids of side 8 and 12 with
  holes at (1, 1) and (n-2, n-2), and for directed paths of 200 and
  1500 edges, the greedy trail as step strings plus the sha256 of its
  full certificate list and of the reduced document;
- "recipes": the grid_reduction_recipe step lists of those grids;
- "fbg": the fundamental bipartite graph table of every named fixture,
  of the 200 sweep instances and of every non-square m-by-n grid with
  2 <= m, n <= 6 and a hole at (1, 1): minimal and maximal vertex ids
  and, per (minimal, maximal) pair, the class count and the edge ids of
  each representative. It was recorded from the brute-force oracle
  (path enumeration plus union-find), which the dynamic program must
  reproduce exactly;
- "validate": the `core.validate` report, each violation as its string
  and its indices, of seeded perturbations of the 200 sweep instances
  and of the standard n-cubes for n <= 4. A perturbation rewires one
  face entry to another cell of the right degree or to an unknown id,
  deletes one face entry, or repeats one id in a cell list; each cube
  of dimension >= 1 also gets pairs of perturbations, so that one
  report mixes kinds and degrees;
- "glued": for each of 320 non-grid complexes drawn by
  `conftest.random_glued_complex` from one seeded `random.Random` (loops,
  parallel edges, edges on three or more squares, pendant edges), the
  sha256 of the check-mode certificates of every candidate as in
  "sweep", the greedy trail as in "greedy" and, where the 1-skeleton is
  acyclic, the sha256 of the FBG table as in "fbg".

tests/test_golden.py recomputes the same records and compares.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from precubical import core, fbg, modelio, recipes, reductions  # noqa: E402
from precubical.cli import _certificate_json  # noqa: E402
from precubical.core import Complex  # noqa: E402
from precubical.errors import NotAcyclic  # noqa: E402

from conftest import PERTURBATIONS, perturb, random_glued_complex, random_grid_complex  # noqa: E402
from test_acceptance import candidates  # noqa: E402

GOLDEN_PATH = os.path.join(HERE, "golden.json")
SWEEP_SEED = 20240817  # the acceptance suite's reduction_sweep seed
SWEEP_INSTANCES = 200
GRID_SIDES = (8, 12)
PATH_LENGTHS = (200, 1500)
FBG_SIDES = range(2, 7)
VALIDATE_SEED = 4401
CUBE_DIMENSIONS = range(5)
CUBE_DRAWS = 5  # perturbations per cube and kind
GLUED_SEED = 6151
GLUED_INSTANCES = 320


def sha256_json(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def grid_holes(n: int):
    return {(1, 1), (n - 2, n - 2)}


def path_complex(length: int) -> Complex:
    return Complex(
        {0: [f"x{t}" for t in range(length + 1)], 1: [f"e{t}" for t in range(length)]},
        {(1, f"e{t}"): {(1, 0): f"x{t}", (1, 1): f"x{t + 1}"} for t in range(length)},
    )


def greedy_inputs():
    for name in modelio.FIXTURE_NAMES:
        yield f"fixture {name}", modelio.named_fixture(name)
    for n in GRID_SIDES:
        yield f"grid {n}", modelio.grid_with_holes(n, n, grid_holes(n))
    for length in PATH_LENGTHS:
        yield f"path {length}", path_complex(length)


def fbg_inputs():
    for name in modelio.FIXTURE_NAMES:
        yield f"fixture {name}", modelio.named_fixture(name)
    rng = random.Random(SWEEP_SEED)
    for t in range(SWEEP_INSTANCES):
        yield f"sweep {t}", random_grid_complex(rng, max_side=4)
    for m in FBG_SIDES:
        for n in FBG_SIDES:
            if m != n:
                yield f"grid {m}x{n}", modelio.grid_with_holes(m, n, {(1, 1)})


def validate_inputs():
    rng, draws = random.Random(SWEEP_SEED), random.Random(VALIDATE_SEED)
    for t in range(SWEEP_INSTANCES):
        how = PERTURBATIONS[t % len(PERTURBATIONS)]
        P = perturb(random_grid_complex(rng, max_side=4), draws, how)
        if P is not None:
            yield f"sweep {t} {how}", P
    for n in CUBE_DIMENSIONS:
        for how in PERTURBATIONS:
            for r in range(CUBE_DRAWS):
                P = perturb(core.standard_cube(n), draws, how)
                if P is not None:
                    yield f"cube {n} {how} {r}", P
        for r in range(CUBE_DRAWS if n else 0):
            first, second = draws.choice(PERTURBATIONS), draws.choice(PERTURBATIONS)
            P = perturb(perturb(core.standard_cube(n), draws, first), draws, second)
            if P is not None:
                yield f"cube {n} {first}+{second} {r}", P


def glued_inputs():
    rng = random.Random(GLUED_SEED)
    for t in range(GLUED_INSTANCES):
        yield f"glued {t}", random_glued_complex(rng)


def validate_record(P: Complex) -> list:
    return [[str(v), None if v.indices is None else list(v.indices)] for v in core.validate(P)]


def candidates_hash(P: Complex) -> str:
    return sha256_json([
        _certificate_json(reductions.check(P, kind, cell, a, b))
        for kind, cell, a, b in candidates(P)
    ])


def sweep_record(instances: int = SWEEP_INSTANCES) -> list[str]:
    rng = random.Random(SWEEP_SEED)
    return [candidates_hash(random_grid_complex(rng, max_side=4)) for _ in range(instances)]


def greedy_record(P: Complex) -> dict:
    Q, trail = reductions.auto_reduce(P)
    return {
        "steps": [str(reductions.Step.of(c)) for c in trail],
        "certificates": sha256_json([_certificate_json(c) for c in trail]),
        "result": hashlib.sha256(modelio.serialize(Q).encode("utf-8")).hexdigest(),
    }


def recipe_record(n: int) -> list[str]:
    return [str(step) for step in recipes.grid_reduction_recipe(n, n, grid_holes(n))]


def fbg_record(P: Complex) -> dict:
    try:
        table = fbg.fundamental_bipartite_graph(P)
    except NotAcyclic:
        return {"error": "NotAcyclic"}
    return {
        "minimals": [v.id for v in table.minimals],
        "maximals": [v.id for v in table.maximals],
        "classes": [
            [m.id, M.id, count, [list(p.edge_ids()) for p in reps]]
            for (m, M), (count, reps) in table.classes.items()
        ],
    }


def glued_record(P: Complex) -> dict:
    record = {"candidates": candidates_hash(P), **greedy_record(P)}
    table = fbg_record(P)
    if "error" not in table:
        record["fbg"] = sha256_json(table)
    return record


def build() -> dict:
    return {
        "fbg": {label: fbg_record(P) for label, P in fbg_inputs()},
        "sweep": sweep_record(),
        "greedy": {label: greedy_record(P) for label, P in greedy_inputs()},
        "recipes": {f"grid {n}": recipe_record(n) for n in GRID_SIDES},
        "validate": {label: validate_record(P) for label, P in validate_inputs()},
        "glued": {label: glued_record(P) for label, P in glued_inputs()},
    }


def main():
    record = build()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=HERE,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    record["recorded_at"] = commit
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
