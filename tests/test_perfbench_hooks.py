"""The attributes perfbench's tracer swaps for timing wrappers, and the
entry points its workloads call, still exist.

The tracer is read as text and executed into a namespace, so this test
imports nothing from the benchmark package and writes nothing there.
"""

import importlib
import inspect
from pathlib import Path

from precubical import cli, core, recipes, reductions

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_namespace() -> dict:
    namespace: dict = {}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace


def test_every_wrapped_attribute_is_a_callable():
    for module_name, attr, *_ in _tracing_namespace()["WRAPPED"]:
        module = importlib.import_module(f"precubical.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_run_span_reads_mode_as_the_sixth_parameter():
    assert list(inspect.signature(reductions.run).parameters)[5] == "mode"
    run_span = _tracing_namespace()["_run_span"]
    assert run_span((None,) * 5 + ("check",), {}) == "reductions.check"
    assert run_span((None,) * 5, {}) == "reductions.apply"


def test_workload_entry_points_keep_their_names():
    """perfbench's workloads call these by name and these parameters."""

    def parameters(fn):
        return list(inspect.signature(fn).parameters)

    assert {"policy", "recipe"} <= set(parameters(reductions.auto_reduce))
    assert parameters(recipes.grid_reduction_recipe) == ["m", "n", "holes"]
    assert parameters(core.Complex)[:2] == ["cells", "faces"]
    assert len(parameters(recipes.parse_recipe)) == len(parameters(recipes.format_recipe)) == 1
    assert parameters(cli.main) == ["argv"]
