import json
import random

import pytest

from precubical import modelio, recipes
from precubical.cli import main

from conftest import relabelled


def write_fixture(tmp_path, name):
    path = tmp_path / f"{name}.pcs"
    modelio.save(modelio.named_fixture(name), path, name)
    return str(path)


def test_gen_and_fbg(tmp_path, capsys):
    out = str(tmp_path / "sm.pcs")
    assert main(["gen", "--fixture", "shared_memory", "-o", out]) == 0
    assert main(["fbg", out]) == 0
    captured = capsys.readouterr().out
    assert "(0,0) -> (3,3): 2 classes" in captured


def test_auto_reduce_then_iso(tmp_path, capsys):
    sm = write_fixture(tmp_path, "shared_memory")
    de = write_fixture(tmp_path, "double_edge")
    out = str(tmp_path / "out.pcs")
    assert main(["auto-reduce", sm, "-o", out]) == 0
    assert main(["iso", out, de]) == 0


def test_reduce_refusal_exit_code(tmp_path, capsys):
    de = write_fixture(tmp_path, "double_edge")
    code = main(["reduce", de, "--op", "edge-collapse", "--cell", "p", "--b", "0"])
    assert code == 1
    captured = capsys.readouterr().out
    assert "(i) FAILED" in captured
    assert "q/1" in captured


def test_reduce_success_prints_certificate(tmp_path, capsys):
    sq = write_fixture(tmp_path, "square")
    out = str(tmp_path / "reduced.pcs")
    code = main(
        ["reduce", sq, "--op", "square-one-free", "--cell", "s", "--b", "1", "-o", out]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "(reg) ok" in captured
    assert "fbg_guaranteed: yes" in captured
    # output file re-parses to a valid complex
    Q = modelio.load(out)
    assert Q.size(2) == 0


def test_reduce_json(tmp_path, capsys):
    sq = write_fixture(tmp_path, "square")
    code = main(
        ["reduce", sq, "--op", "square-two-free", "--cell", "s",
         "--a", "1", "--b", "0", "--allow-empty-y", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "square-two-free"
    assert payload["Y"] == []
    assert payload["fbg_guaranteed"] is False


def test_guarantee_lost_without_override(tmp_path, capsys):
    iv = write_fixture(tmp_path, "interval")
    code = main(["reduce", iv, "--op", "edge-collapse", "--cell", "e", "--b", "0"])
    assert code == 1
    assert "not guaranteed" in capsys.readouterr().err


def test_validate(tmp_path, capsys):
    good = write_fixture(tmp_path, "square")
    assert main(["validate", good]) == 0
    bad = tmp_path / "bad.pcs"
    bad.write_text("pcsv1\n0 a\n1 e d1_0=a d1_1=zz\n")
    assert main(["validate", str(bad)]) == 1
    assert "dangling-face" in capsys.readouterr().out


def test_compare_fbg(tmp_path, capsys):
    sm = write_fixture(tmp_path, "shared_memory")
    de = write_fixture(tmp_path, "double_edge")
    assert main(["compare-fbg", sm, sm]) == 0
    assert main(["compare-fbg", sm, de]) == 1
    assert main(["compare-fbg", sm, de, "--profile"]) == 0


def test_iso_failure(tmp_path, capsys):
    iv = write_fixture(tmp_path, "interval")
    de = write_fixture(tmp_path, "double_edge")
    assert main(["iso", iv, de]) == 1


def test_iso_32x32_grid(tmp_path, capsys):
    paths = {}
    for name, holes in [("P", "0,5;1,1;30,30"), ("moved", "0,6;1,1;30,30")]:
        paths[name] = str(tmp_path / f"{name}.pcs")
        assert main(["gen", "--grid", "32", "32", "--holes", holes, "-o", paths[name]]) == 0
        copy = relabelled(modelio.load(paths[name]), random.Random(name))
        paths[name + "-relabelled"] = str(tmp_path / f"{name}-relabelled.pcs")
        modelio.save(copy, paths[name + "-relabelled"])
    assert main(["iso", paths["P"], paths["P-relabelled"]]) == 0
    assert main(["iso", paths["P"], paths["moved-relabelled"]]) == 1
    assert capsys.readouterr().out.endswith("not isomorphic\n")


def test_info(tmp_path, capsys):
    sm = write_fixture(tmp_path, "shared_memory")
    assert main(["info", sm]) == 0
    captured = capsys.readouterr().out
    assert "dimension: 2" in captured
    assert "cells[2]: 8" in captured
    assert "euler characteristic: 0" in captured


def test_export_dot(tmp_path, capsys):
    de = write_fixture(tmp_path, "double_edge")
    assert main(["export-dot", de]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_gen_grid_with_holes(tmp_path, capsys):
    assert main(["gen", "--grid", "2", "2", "--holes", "0,0;1,1"]) == 0
    P = modelio.parse(capsys.readouterr().out)
    assert P.size(2) == 2


def test_recipe_file(tmp_path, capsys):
    sm = write_fixture(tmp_path, "shared_memory")
    steps = recipes.grid_reduction_recipe(*modelio.SHARED_MEMORY_GRID)
    recipe_path = tmp_path / "steps.txt"
    recipe_path.write_text(recipes.format_recipe(steps))
    out = str(tmp_path / "reduced.pcs")
    assert main(["auto-reduce", sm, "--recipe", str(recipe_path), "-o", out]) == 0
    de = write_fixture(tmp_path, "double_edge")
    assert main(["iso", out, de]) == 0


def test_recipe_step_failure(tmp_path, capsys):
    de = write_fixture(tmp_path, "double_edge")
    recipe_path = tmp_path / "steps.txt"
    recipe_path.write_text("edge-collapse p 0\n")
    assert main(["auto-reduce", de, "--recipe", str(recipe_path)]) == 1


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.pcs"
    bad.write_text("not-a-header\n")
    assert main(["validate", str(bad)]) == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["reduce"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv, recipe",
    [
        (["gen", "--grid", "2", "2", "--holes", "bad"], None),
        (["auto-reduce", "{input}", "--recipe", "{recipe}"], "edge-collapse e x\n"),
        (["reduce", "{input}", "--op", "square-two-free", "--cell", "s", "--b", "0"], None),
        (["gen", "--grid", "0", "3"], None),
        (["gen", "--grid", "2", "2", "--holes", "5,5"], None),
        (["fbg", "{input}", "--max-paths", "0"], None),
        (["compare-fbg", "{input}", "{input}", "--max-paths", "-1"], None),
    ],
    ids=["gen-bad-holes", "recipe-bad-line", "two-free-without-a", "gen-empty-grid",
         "gen-hole-outside", "fbg-max-paths-0", "compare-fbg-max-paths-negative"],
)
def test_usage_errors_exit_2(tmp_path, capsys, argv, recipe):
    paths = {"input": write_fixture(tmp_path, "square"), "recipe": str(tmp_path / "steps.txt")}
    if recipe is not None:
        (tmp_path / "steps.txt").write_text(recipe)
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")
