"""Self-test of the benchmark, in seconds. Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs every workload's full path at a smoke size, traced and untraced,
answer checks included; checks that the checker counts deliberately wrong
answers as failed; checks the benchmark's own FBG reference against the
library's brute-force oracle; and cross-checks two model timings against
the baseline table in ROADMAP.md. Exits 0 when all checks pass.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import statistics
import sys

import harness
import reference
from tracing import Tracer
from workloads import FbgOracle, GreedyCli, IsoRelabel, RecipeReplay, grid_model

SMOKE = (
    GreedyCli(sides=(3, 4), hole_counts=(1, 2), path_length=20),
    RecipeReplay(sides=(4, 5), hole_counts=(1, 2), draws=1),
    FbgOracle(sides=(2, 3), draws=1, hole_counts=(0, 1)),  # keeps its 1200-edge paths
    IsoRelabel(sides=(3, 4), draws=1),
)

failures = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def smoke_runs(root, spec):
    for workload in SMOKE:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = harness.run(workload, 0, 0, trace, root)
            names = {m["name"] for m in spec[kind]}
            expect(result["correct"], f"{workload.name} trace={trace}: every answer correct or a declared limit")
            expect(set(result["metrics"]) == names, f"{workload.name} trace={trace}: metrics are the {kind} ones")
            expect(all(isinstance(m["value"], float | int) for m in result["metrics"].values()),
                   f"{workload.name} trace={trace}: every metric is a number")
        if workload.name == "fbg_oracle":
            expect(result["failed"] > 0, "fbg_oracle: the declared RecursionError paths still fail")
        else:
            expect(result["failed"] == 0, f"{workload.name}: no model failed")


def wrong_answers(root):
    """A model whose expected answer is tampered with must count as failed."""
    pc = harness.import_precubical(root)
    workdir = os.path.join(root, harness.OUT_DIR, "selftest")
    os.makedirs(workdir, exist_ok=True)
    for workload in SMOKE:
        model = workload.build(random.Random(1), pc, workdir)[0]
        if workload.name == "iso_relabel":
            flipped = dict(model.data, isomorphic=not model.data["isomorphic"])
            wrong = dataclasses.replace(model, data=flipped)
        else:
            wrong = dataclasses.replace(model, classes=model.classes + 1)
        right = harness.run_model(workload, model, pc, workdir, False, "0.0")
        bad = harness.run_model(workload, wrong, pc, workdir, False, "0.0")
        expect(right.ok and not bad.ok, f"{workload.name}: a wrong answer counts as failed")

    iso = SMOKE[3]
    model = next(m for m in iso.build(random.Random(2), pc, workdir) if m.data["isomorphic"])
    mapping = iso.run(model, pc, workdir)
    vertices = [p for p in mapping if p.degree == 0][:2]
    swapped = dict(mapping)
    swapped[vertices[0]], swapped[vertices[1]] = mapping[vertices[1]], mapping[vertices[0]]
    expect(reference.mapping_is_isomorphism(mapping, *model.data["p"], *model.data["q"])
           and not reference.mapping_is_isomorphism(swapped, *model.data["p"], *model.data["q"]),
           "iso_relabel: a mapping that does not commute with faces is refused")


def reference_against_oracle(root):
    pc = harness.import_precubical(root)
    rng = random.Random(7)
    agree = 0
    for _ in range(40):
        m, n = rng.randint(2, 6), rng.randint(2, 6)
        holes = rng.sample([(i, j) for i in range(m) for j in range(n)], rng.randint(0, min(4, m * n)))
        table = pc["fbg"].fundamental_bipartite_graph(pc["modelio"].grid_with_holes(m, n, holes))
        agree += list(table.classes.values())[0][0] == reference.grid_class_count(holes)
    expect(agree == 40, f"grid class-count reference agrees with the oracle on {agree}/40 random grids")


def roadmap_cross_check(root):
    """On the 8x8 grid with holes (1,1), (6,6), the spans that the ROADMAP
    baseline table timed should land within 2x of it: greedy auto_reduce
    0.62 s, recipe generation plus replay 0.25 s."""
    pc = harness.import_precubical(root)
    workdir = os.path.join(root, harness.OUT_DIR, "selftest")
    os.makedirs(workdir, exist_ok=True)
    holes = ((1, 1), (6, 6))
    grid = pc["modelio"].grid_with_holes(8, 8, holes)
    for workload, model, spans, roadmap_s in (
        (GreedyCli(), grid_model(8, 8, holes), {"reductions.auto_reduce"}, 0.62),
        (RecipeReplay(), grid_model(8, 8, holes, complex=grid),
         {"recipes.grid_reduction_recipe", "reductions.auto_reduce"}, 0.25),
    ):
        tracer = Tracer()
        tracer.install(pc)
        try:
            samples = []
            for rep in range(3):
                tracer.model = str(rep)
                samples.append(harness.run_model(workload, model, pc, workdir, True, f"{rep}.0"))
        finally:
            tracer.uninstall()
        per_rep = {}
        for name, start, end, parent, rep, count in tracer.spans:
            if name in spans and (parent < 0 or tracer.spans[parent][0] not in spans):
                per_rep[rep] = per_rep.get(rep, 0.0) + end - start
        # At the host's reference speed, as the harness reports model times.
        best = min(per_rep[str(rep)] * harness.YARDSTICK_S / s.yardstick for rep, s in enumerate(samples))
        yardstick_ms = statistics.median(s.yardstick for s in samples) * 1e3
        expect(all(s.ok for s in samples) and roadmap_s / 2 <= best <= roadmap_s * 2,
               f"{workload.name}: 8x8 two-hole {' + '.join(sorted(spans))} took {best:.3f} s at the "
               f"reference speed (yardstick {yardstick_ms:.2f} ms), within 2x of the ROADMAP's {roadmap_s} s")


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expect(harness.tail([float(x) for x in range(1, 31)]) == (20.0, 100 * 20 / 30, 30),
           "tail of 30 samples is the 20th, ten samples beyond it")
    try:
        smoke_runs(root, spec)
        wrong_answers(root)
        reference_against_oracle(root)
        roadmap_cross_check(root)
    finally:
        shutil.rmtree(os.path.join(root, harness.OUT_DIR, "selftest"), ignore_errors=True)
    print(f"selftest: {'FAIL' if failures else 'PASS'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
