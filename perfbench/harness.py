"""Set-up, the closed measuring loop and the metrics of one run.

One process runs one workload with one client: one model at a time, no
threads. Untraced runs give the end-to-end metrics; traced runs give the
per-layer metrics, running each round once untraced and once traced so
that the tracing overhead is measured on the same models.
"""

from __future__ import annotations

import importlib
import os
import random
import resource
import shutil
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

from tracing import Tracer

MODULES = ("cli", "core", "fbg", "modelio", "recipes", "reductions")
SETUP_REPS = 7
MIN_REPS = 2
# The yardstick's time when the reference host (2 vCPU, Python 3.11.7)
# runs at its full speed: about the 5th percentile of 1500 runs.
YARDSTICK_S = 0.003
OUT_DIR = os.path.join("perfbench", "out")


@dataclass
class Sample:
    label: str
    seconds: float
    ok: bool
    cells: int  # cells of the complex the model ends with
    error: str | None
    declared: bool  # the error is a declared known limit
    traced: bool
    model_id: str
    yardstick: float  # seconds the yardstick took around this model


def import_precubical(root):
    """Import a fresh copy of the package from the checkout's src/."""
    src = os.path.join(root, "src")
    for name in [n for n in sys.modules if n == "precubical" or n.startswith("precubical.")]:
        del sys.modules[name]
    if sys.path[0] != src:
        sys.path.insert(0, src)
    modules = {name: importlib.import_module(f"precubical.{name}") for name in MODULES}
    if not modules["core"].__file__.startswith(src + os.sep):
        raise ImportError(f"precubical came from {modules['core'].__file__}, not {src}")
    return modules


def yardstick():
    """Fixed pure-Python work of the kind the library does (building
    small dicts, sorting ids, set and dict lookups) whose time shows how
    fast the host runs Python at this moment. Best of three runs."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        tables = {(i % 7, f"c{i:05d}"): {(1, 0): f"v{i}", (1, 1): f"v{i + 1}"} for i in range(2000)}
        for key in sorted(tables, key=lambda k: k[1], reverse=True):
            table = tables[key]
            len({table[(1, 0)], table[(1, 1)], key[1]})
        best = min(best, perf_counter() - start)
    return best


def run_model(workload, model, pc, workdir, traced, model_id):
    speed = yardstick()
    start = perf_counter()
    try:
        answer, error = workload.run(model, pc, workdir), None
    except Exception as exc:  # a model that raises counts as failed
        answer, error = None, exc
    elapsed = perf_counter() - start
    ok, cells = False, None
    if error is None:
        try:
            ok, cells = workload.check(model, answer)
        except (ValueError, KeyError, TypeError, AttributeError):
            ok = False
    if cells is None:  # no reduced complex to count: the model counts as unreduced
        cells = model.cells
    return Sample(
        model.label, elapsed, ok, cells,
        None if error is None else type(error).__name__,
        error is not None and isinstance(error, model.known_failure),
        traced, model_id, speed,
    )


def measure(workload, models, pc, workdir, seconds, tracer):
    """Repeat the round until `seconds` of wall time have passed, at
    least twice. A traced run times each repetition both untraced and
    traced, alternating which goes first."""
    samples = []
    start = perf_counter()
    reps = 0
    while reps < MIN_REPS or perf_counter() - start < seconds:
        passes = ((None, tracer) if reps % 2 == 0 else (tracer, None)) if tracer else (None,)
        for active in passes:
            if active:
                active.install(pc)
            try:
                for index, model in enumerate(models):
                    model_id = f"{reps}.{index}"
                    if active:
                        active.model = model_id
                    samples.append(run_model(workload, model, pc, workdir, active is not None, model_id))
            finally:
                if active:
                    active.uninstall()
        reps += 1
    # The yardstick runs before each model; the next model's run comes
    # right after this one, so their mean covers the model's time.
    for sample, after in zip(samples, samples[1:]):
        sample.yardstick = (sample.yardstick + after.yardstick) / 2
    return samples, reps


def host_times(samples):
    """Each model run's time at the reference host's full speed: its wall
    time divided by the yardstick's time around it, times YARDSTICK_S.
    The host's speed drifts by up to 2x over seconds to minutes; the
    yardstick drifts with it."""
    return [s.seconds * YARDSTICK_S / s.yardstick for s in samples]


def tail(times):
    """The value at the highest percentile with at least ten samples
    beyond it, that percentile, and N (the maximum when N <= 10)."""
    ordered = sorted(times)
    n = len(ordered)
    k = n - 10 if n > 10 else n
    return ordered[k - 1], 100.0 * k / n, n


def end_to_end(samples, setup_times):
    times = host_times(samples)
    return {
        "models_per_s": (sum(s.ok for s in samples) / sum(times), "1/s"),
        "model_s_p50": (statistics.median(times), "s"),
        "model_s_tail": (tail(times)[0], "s"),
        "correct_frac": (sum(s.ok for s in samples) / len(samples), "ratio"),
        "reduced_cells": (statistics.mean(s.cells for s in samples), "count"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(samples, tracer):
    stats, covered = tracer.summary()
    model, setup = stats["model"], stats["setup"]
    traced = [s for s in samples if s.traced]
    plain = [s for s in samples if not s.traced]
    n = len(traced)
    traced_s = sum(s.seconds for s in traced)
    host_traced, host_plain = host_times(traced), host_times(plain)

    def per(name, key="s"):
        return model[name][key] / n if n else 0.0

    check_calls = model["reductions.check"]["calls"]
    metrics = {
        "reductions.check.calls": (per("reductions.check", "calls"), "count/model"),
        "reductions.check.s": (per("reductions.check"), "s/model"),
        "reductions.check.pass_ratio": (_ratio(model["reductions.check"]["count"], check_calls), "ratio"),
        "reductions.checks_per_step": (_ratio(check_calls, model["reductions.apply"]["calls"]), "ratio"),
        "reductions.apply.calls": (per("reductions.apply", "calls"), "count/model"),
        "reductions.apply.s": (per("reductions.apply"), "s/model"),
        "reductions.auto_reduce.self_s": (per("reductions.auto_reduce", "self_s"), "s/model"),
        "reductions.auto_reduce.steps": (per("reductions.auto_reduce", "count"), "count/model"),
        "reductions.run.share": (
            _ratio(per("reductions.check") + per("reductions.apply"), traced_s / n if n else 0), "ratio"),
        "core.is_regular.calls": (per("core.is_regular", "calls"), "count/model"),
        "core.is_regular.s": (per("core.is_regular"), "s/model"),
        "recipes.grid_reduction_recipe.self_s": (per("recipes.grid_reduction_recipe", "self_s"), "s/model"),
        "recipes.grid_reduction_recipe.steps": (per("recipes.grid_reduction_recipe", "count"), "count/model"),
        "fbg.fundamental_bipartite_graph.s": (per("fbg.fundamental_bipartite_graph"), "s/model"),
        "fbg.enumerate_dipaths.s": (per("fbg.enumerate_dipaths"), "s/model"),
        "fbg.enumerate_dipaths.paths": (per("fbg.enumerate_dipaths", "count"), "count/model"),
        "fbg.dihomotopy_classes.self_s": (per("fbg.dihomotopy_classes", "self_s"), "s/model"),
        "fbg.paths_per_class": (_ratio(
            model["fbg.enumerate_dipaths"]["count"], model["fbg.dihomotopy_classes"]["count"]), "ratio"),
        "fbg.one_skeleton_is_acyclic.calls": (per("fbg.one_skeleton_is_acyclic", "calls"), "count/model"),
        "core.are_isomorphic.calls": (per("core.are_isomorphic", "calls"), "count/model"),
        "core.are_isomorphic.s": (per("core.are_isomorphic"), "s/model"),
        "modelio.parse.s": (per("modelio.parse"), "s/model"),
        "modelio.parse.mb_per_s": (_ratio(model["modelio.parse"]["count"] / 1e6, model["modelio.parse"]["s"]), "MB/s"),
        "core.validate.s": (per("core.validate"), "s/model"),
        "modelio.serialize.s": (per("modelio.serialize"), "s/model"),
        "modelio.grid_with_holes.s": (per("modelio.grid_with_holes"), "s/model"),
        "cli.main.self_s": (per("cli.main", "self_s"), "s/model"),
        "bench.untraced_s": (
            sum(s.seconds - covered[s.model_id] for s in traced) / n if n else 0.0, "s/model"),
        "bench.trace_overhead": (_ratio(sum(host_traced), sum(host_plain)) - 1.0, "ratio"),
        "bench.models_per_s_traced": (_ratio(len(host_traced), sum(host_traced)), "1/s"),
        "bench.models_per_s_untraced": (_ratio(len(host_plain), sum(host_plain)), "1/s"),
    }
    for name in ("modelio.parse", "core.validate", "modelio.serialize", "modelio.grid_with_holes"):
        metrics[f"setup.{name}.s"] = (setup[name]["s"], "s")
    return metrics


def run(workload, seed, seconds, trace, root):
    """Run one workload; return (result dict for the last line, report lines)."""
    out_dir = os.path.join(root, OUT_DIR)
    workdir = os.path.join(out_dir, f"work-{workload.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = Tracer() if trace else None
    try:
        setup_times = []
        for rep in range(SETUP_REPS):
            models = None  # so that two sets of inputs are never alive at once
            before = yardstick()
            start = perf_counter()
            pc = import_precubical(root)
            if tracer and rep == SETUP_REPS - 1:
                tracer.install(pc)
            try:
                models = workload.build(random.Random(f"{workload.name}:{seed}"), pc, workdir)
            finally:
                if tracer:
                    tracer.uninstall()
            elapsed = perf_counter() - start
            setup_times.append(elapsed * YARDSTICK_S * 2 / (before + yardstick()))
        samples, reps = measure(workload, models, pc, workdir, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer:
        metrics = per_layer(samples, tracer)
        trace_path = os.path.join(out_dir, f"trace-{workload.name}-seed{seed}.jsonl")
        tracer.write(trace_path)
    else:
        metrics = end_to_end(samples, setup_times)
    failed = [s for s in samples if not s.ok]
    correct = all(s.ok or s.declared for s in samples)

    plain = [s for s in samples if not s.traced]
    wall = [s.seconds for s in plain]
    value, pct, n = tail(wall)
    lines = [f"workload {workload.name} seed {seed}: {len(models)} models x {reps} repetitions"]
    lines += [f"  {name} = {v:.6g} {unit}" for name, (v, unit) in metrics.items()]
    lines.append(f"  model_s_tail is p{pct:.1f} of N={n} model runs; failed_frac = {len(failed) / len(samples):.6g}")
    lines.append(
        f"  wall time: {len(wall) / sum(wall):.6g} models/s, p50 {statistics.median(wall):.6g} s, "
        f"tail {value:.6g} s; yardstick median "
        f"{statistics.median(s.yardstick for s in plain) * 1e3:.4g} ms (reference {YARDSTICK_S * 1e3:g} ms)")
    kinds = Counter((s.error or "wrong answer", s.declared, s.label) for s in failed)
    for (error, declared, label), count in sorted(kinds.items()):
        lines.append(f"  failed: {count} x {error} on {label}{' (declared limit)' if declared else ''}")
    if tracer:
        lines.append(f"  spans written to {os.path.relpath(trace_path, root)}")
    result = {
        "correct": correct,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    return result, lines
