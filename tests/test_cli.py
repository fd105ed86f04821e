import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

from precubical import cli, core, modelio, recipes, reductions
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


def test_export_dot_to_a_file(tmp_path, capsys):
    de, out = write_fixture(tmp_path, "double_edge"), tmp_path / "de.dot"
    assert main(["export-dot", de, "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == modelio.export_dot(modelio.load(de))


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


def test_auto_reduce_trail_lines_are_a_recipe(tmp_path, capsys):
    flag = write_fixture(tmp_path, "swiss_flag")
    greedy_out, replay_out = tmp_path / "greedy.pcs", tmp_path / "replay.pcs"
    assert main(["auto-reduce", flag, "-o", str(greedy_out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    trail = lines[:lines.index("34 reductions applied")]
    steps = recipes.parse_recipe("\n".join(trail))
    assert len(steps) == 34 and any(step.a is not None for step in steps)
    recipe_path = tmp_path / "steps.txt"
    recipe_path.write_text(recipes.format_recipe(steps))
    assert main(["auto-reduce", flag, "--recipe", str(recipe_path), "-o", str(replay_out)]) == 0
    assert capsys.readouterr().out.splitlines()[:34] == trail
    assert replay_out.read_bytes() == greedy_out.read_bytes()


@pytest.mark.parametrize("name", ["swiss_flag", "circle"])
def test_auto_reduce_stdout_is_the_step_lines_then_the_cell_counts(tmp_path, capsys, name):
    """Exactly one line per step, then the summary; circle takes no step."""
    path = write_fixture(tmp_path, name)
    Q, trail = reductions.auto_reduce(modelio.load(path))
    assert main(["auto-reduce", path]) == 0
    expected = [*map(str, map(reductions.Step.of, trail)), f"{len(trail)} reductions applied",
                *(f"cells[{n}]: {Q.size(n)}" for n in Q.degrees())]
    assert capsys.readouterr().out == "".join(line + "\n" for line in expected)
    assert bool(trail) == (name == "swiss_flag")


def test_recipe_step_failure(tmp_path, capsys):
    de = write_fixture(tmp_path, "double_edge")
    recipe_path = tmp_path / "steps.txt"
    recipe_path.write_text("edge-collapse p 0\n")
    assert main(["auto-reduce", de, "--recipe", str(recipe_path)]) == 1


@pytest.mark.parametrize(
    "step, certified, flags",
    [("p", True, []), ("nope", False, []), ("p", True, ["--json"])],
    ids=["p-True", "nope-False", "p-True-json"],
)
def test_recipe_step_failure_prints_its_certificate_then_the_error(
    tmp_path, capsys, step, certified, flags
):
    de = write_fixture(tmp_path, "double_edge")
    recipe_path = tmp_path / "steps.txt"
    recipe_path.write_text(f"edge-collapse {step} 0\n")
    both = io.StringIO()
    with contextlib.redirect_stdout(both), contextlib.redirect_stderr(both):
        assert main(["auto-reduce", de, "--recipe", str(recipe_path), *flags]) == 1
    *shown, last = both.getvalue().splitlines()
    assert last == f"error: recipe step 0 (edge-collapse {step} 0) failed"
    if flags:  # --json: everything before the error is the certificate's JSON
        payload = json.loads("\n".join(shown))
        assert (payload["kind"], payload["cell"]) == ("edge-collapse", "p")
        assert {"label": "i", "holds": False, "witnesses": ["q/1"]} in payload["conditions"]
        return
    assert shown[:1] == (["edge-collapse on p"] if certified else [])
    assert ("    (i) FAILED  witnesses: q/1" in shown) == certified


@pytest.mark.parametrize("recipe", [None, ""], ids=["greedy", "empty-recipe"])
def test_auto_reduce_above_dimension_2_exits_1(tmp_path, capsys, recipe):
    cube = tmp_path / "cube3.pcs"
    modelio.save(core.standard_cube(3), cube)
    flags = []
    if recipe is not None:
        (tmp_path / "steps.txt").write_text(recipe)
        flags = ["--recipe", str(tmp_path / "steps.txt")]
    assert main(["auto-reduce", str(cube), *flags]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: a reduction works in dimension <= 2, not 3\n")


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
        (["reduce", "{input}", "--op", "edge-collapse", "--cell", "e", "--a", "2", "--b", "0"], None),
        (["gen", "--grid", "0", "3"], None),
        (["gen", "--grid", "2", "2", "--holes", "5,5"], None),
        (["fbg", "{input}", "--max-paths", "0"], None),
        (["compare-fbg", "{input}", "{input}", "--max-paths", "-1"], None),
        (["info", "{recipe}"], b"pcsv1\n0 a\xff\n"),
        (["validate", "{recipe}"], b"pcsv1\n0 a\xff\n"),
        (["auto-reduce", "{input}", "--recipe", "{recipe}"], b"square-one-free s\xff 1\n"),
    ],
    ids=["gen-bad-holes", "recipe-bad-line", "two-free-without-a", "collapse-with-a",
         "gen-empty-grid", "gen-hole-outside", "fbg-max-paths-0", "compare-fbg-max-paths-negative",
         "info-not-utf8", "validate-not-utf8", "recipe-not-utf8"],
)
def test_usage_errors_exit_2(tmp_path, capsys, argv, recipe):
    paths = {"input": write_fixture(tmp_path, "square"), "recipe": str(tmp_path / "steps.txt")}
    if recipe is not None:
        data = recipe if isinstance(recipe, bytes) else recipe.encode()
        (tmp_path / "steps.txt").write_bytes(data)
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_invalid_document_exits_1_with_its_report(tmp_path, capsys):
    bad = tmp_path / "bad.pcs"
    bad.write_text("pcsv1\n0 a\n1 e d1_0=a d1_1=ghost\n")
    assert main(["info", str(bad)]) == 1
    assert "dangling-face" in capsys.readouterr().err


def test_domain_error_exits_1(tmp_path, capsys):
    assert main(["fbg", write_fixture(tmp_path, "circle")]) == 1
    assert capsys.readouterr().err == "error: the 1-skeleton has a directed cycle\n"


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["info", str(tmp_path / "nosuch.pcs")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_certificate_text_lists_redirected_entries(tmp_path, capsys):
    path2 = write_fixture(tmp_path, "path2")
    assert main(["reduce", path2, "--op", "edge-collapse", "--cell", "e1", "--b", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[lines.index("  redirected:") + 1] == "    d1_0 e2 -> v0"


def test_certificate_text_counts_r(tmp_path, capsys):
    sq = write_fixture(tmp_path, "square")
    code = main(["reduce", sq, "--op", "square-two-free", "--cell", "s", "--a", "1", "--b", "0"])
    assert code == 1
    assert "  R: 5 cells" in capsys.readouterr().out.splitlines()


def test_fbg_json(tmp_path, capsys):
    assert main(["fbg", write_fixture(tmp_path, "shared_memory"), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["minimals"] == ["(0,0)"]
    assert payload["maximals"] == ["(3,3)"]
    [pair] = payload["classes"]
    assert (pair["from"], pair["to"], pair["count"]) == ("(0,0)", "(3,3)", 2)
    assert len(pair["representatives"]) == 2


def test_main_builds_its_parser_once(monkeypatch, tmp_path, capsys):
    built = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or original())
    cli._parser.cache_clear()
    try:
        sq = write_fixture(tmp_path, "square")
        assert main(["info", sq]) == 0
        assert main(["validate", sq]) == 0
        capsys.readouterr()
        helps = []
        for _ in range(2):
            with pytest.raises(SystemExit) as excinfo:
                main(["reduce", "--help"])
            assert excinfo.value.code == 0
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1]
        assert helps[0].startswith("usage: precubical reduce")
        assert built == [1]
    finally:
        cli._parser.cache_clear()


def test_import_builds_no_parser():
    code = "import precubical.cli as cli; print(cli._parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout == "0\n", out.stderr


def mutated(rng: random.Random, text: str) -> str:
    """text after one to three token-level mutations, each on a random
    record: a face entry rewired to another id, a token dropped, the record
    repeated or dropped, its degree changed, or a stray entry appended."""
    lines = text.splitlines()
    ids = [line.split()[1] for line in lines if line[:1].isdigit()]
    for _ in range(rng.randint(1, 3)):
        if len(lines) < 2:
            break
        i = rng.randrange(1, len(lines))  # the header stays
        tokens = lines[i].split()
        how = rng.randrange(6)
        entries = [j for j, token in enumerate(tokens) if "=" in token]
        if not tokens:
            continue
        if how == 0 and entries:
            j = rng.choice(entries)
            tokens[j] = tokens[j].split("=")[0] + "=" + rng.choice(ids)
        elif how == 1:
            del tokens[rng.randrange(len(tokens))]
        elif how == 2:
            lines.insert(i, lines[i])
        elif how == 3:
            del lines[i]
            continue
        elif how == 4:
            tokens[0] = str(rng.randint(0, 3))
        else:
            stray = f"d{rng.randint(1, 3)}_{rng.randint(0, 1)}={rng.choice(ids)}"
            tokens.append(rng.choice([stray, rng.choice(ids), "pos=1,2"]))
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def test_mutated_documents_exit_with_a_code(tmp_path, capsys):
    # Every command on a broken document ends in exit code 0, 1 or 2: no
    # exception escapes main.
    rng = random.Random(2310)
    texts = [modelio.serialize(modelio.named_fixture(name), name) for name in modelio.FIXTURE_NAMES]
    doc, out = str(tmp_path / "doc.pcsv"), str(tmp_path / "out.pcsv")
    codes = []
    for t in range(300):
        with open(doc, "w", encoding="utf-8") as fh:
            fh.write(mutated(rng, texts[t % len(texts)]))
        for argv in (["validate", doc], ["info", doc], ["fbg", "--json", doc],
                     ["auto-reduce", doc, "-o", out], ["export-dot", doc], ["iso", doc, doc]):
            codes.append(main(argv))
        capsys.readouterr()
    assert set(codes) <= {0, 1, 2}
    assert {0, 1, 2} <= set(codes)
