"""Command-line front end.

Exit codes: 0 on success, 1 on a domain failure (invalid complex, failed
reduction conditions, cyclic 1-skeleton, non-isomorphic inputs), 2 on a
usage or parse error or an argument out of range.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import core, fbg, modelio, recipes, reductions
from .errors import DocumentSyntaxError, OutOfRange, PrecubicalError, ValidationFailed


def _cell_str(cell: core.CellRef) -> str:
    return f"{cell.id}/{cell.degree}"


def _certificate_json(cert: reductions.ReductionCertificate) -> dict:
    return {
        "kind": cert.kind,
        "cell": cert.cell.id,
        "params": cert.params,
        "conditions": [
            {
                "label": c.label,
                "holds": c.holds,
                "witnesses": [_cell_str(w) for w in c.witnesses],
            }
            for c in cert.conditions
        ],
        "removed": sorted(_cell_str(c) for c in cert.removed),
        "redirected": [
            {"cell": cell.id, "i": i, "k": k, "to": target.id}
            for (cell, i, k), target in sorted(cert.redirected.items())
        ],
        "Y": sorted(c.id for c in cert.y) if cert.y is not None else None,
        "R": sorted(_cell_str(c) for c in cert.r_cells)
        if cert.r_cells is not None
        else None,
        "fbg_guaranteed": cert.fbg_guaranteed,
    }


def _certificate_lines(payload: dict) -> list[str]:
    """The text form of a certificate, read from its JSON payload."""
    lines = [f"{payload['kind']} on {payload['cell']}"]
    lines.append("  params: " + " ".join(f"{k}={v}" for k, v in sorted(payload["params"].items())))
    lines.append("  conditions:")
    for c in payload["conditions"]:
        witness = "  witnesses: " + " ".join(c["witnesses"]) if c["witnesses"] else ""
        lines.append(f"    ({c['label']}) {'ok' if c['holds'] else 'FAILED'}{witness}")
    lines.append("  removed: " + " ".join(payload["removed"]))
    if payload["redirected"]:
        lines.append("  redirected:")
        for r in payload["redirected"]:
            lines.append(f"    d{r['i']}_{r['k']} {r['cell']} -> {r['to']}")
    if payload["Y"] is not None:
        lines.append("  Y: " + (" ".join(payload["Y"]) or "(empty)"))
    if payload["R"] is not None:
        lines.append(f"  R: {len(payload['R'])} cells")
    lines.append(f"  fbg_guaranteed: {'yes' if payload['fbg_guaranteed'] else 'no'}")
    return lines


def _print_certificate(cert, as_json: bool):
    payload = _certificate_json(cert)
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(_certificate_lines(payload)))


def cmd_validate(args) -> int:
    try:
        modelio.parse(modelio.read_text(args.input))
    except ValidationFailed as exc:
        for violation in exc.report:
            print(violation)
        return 1
    print("valid")
    return 0


def cmd_info(args) -> int:
    P = modelio.load(args.input)
    dim = P.dimension
    print(f"dimension: {'empty' if dim is None else dim}")
    for n in P.degrees():
        print(f"cells[{n}]: {P.size(n)}")
    print(f"euler characteristic: {core.euler_characteristic(P)}")
    print("minimal: " + " ".join(sorted(v.id for v in core.minimal_vertices(P))))
    print("maximal: " + " ".join(sorted(v.id for v in core.maximal_vertices(P))))
    print(f"acyclic 1-skeleton: {'yes' if fbg.one_skeleton_is_acyclic(P) else 'no'}")
    return 0


def cmd_gen(args) -> int:
    if args.fixture:
        P = modelio.named_fixture(args.fixture)
        name = args.fixture
    else:
        holes = set()
        if args.holes:
            try:
                for part in args.holes.split(";"):
                    i, j = part.split(",")
                    holes.add((int(i), int(j)))
            except ValueError:
                raise OutOfRange(f"--holes expects 'i,j;i,j', not {args.holes!r}") from None
        P = modelio.grid_with_holes(args.grid[0], args.grid[1], holes)
        name = f"grid({args.grid[0]},{args.grid[1]})"
    _write(modelio.serialize(P, name), args.output)
    return 0


def cmd_reduce(args) -> int:
    P = modelio.load(args.input)
    Q, cert = reductions.run(
        P, args.op, args.cell, args.a, args.b, allow_empty_y=args.allow_empty_y
    )
    _print_certificate(cert, args.json)
    if args.output:
        modelio.save(Q, args.output)
    return 0


def cmd_auto_reduce(args) -> int:
    P = modelio.load(args.input)
    steps = recipes.parse_recipe(modelio.read_text(args.recipe)) if args.recipe else None
    Q, trail = reductions.auto_reduce(P, "greedy" if steps is None else "recipe", steps)
    for cert in trail:
        print(reductions.Step.of(cert))
    print(f"{len(trail)} reductions applied")
    for n in Q.degrees():
        print(f"cells[{n}]: {Q.size(n)}")
    if args.output:
        modelio.save(Q, args.output)
    return 0


def cmd_fbg(args) -> int:
    P = modelio.load(args.input)
    table = fbg.fundamental_bipartite_graph(P, max_paths=args.max_paths)
    payload = {
        "minimals": [v.id for v in table.minimals],
        "maximals": [v.id for v in table.maximals],
        "classes": [
            {
                "from": m.id,
                "to": M.id,
                "count": count,
                "representatives": [list(p.edge_ids()) for p in reps],
            }
            for (m, M), (count, reps) in table.classes.items()
        ],
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    for c in payload["classes"]:
        print(f"{c['from']} -> {c['to']}: {c['count']} {'class' if c['count'] == 1 else 'classes'}")
    return 0


def cmd_compare_fbg(args) -> int:
    A = fbg.fundamental_bipartite_graph(modelio.load(args.a), max_paths=args.max_paths)
    B = fbg.fundamental_bipartite_graph(modelio.load(args.b), max_paths=args.max_paths)
    for m, M in sorted(set(A.classes) | set(B.classes)):
        ca = A.classes.get((m, M), ("-",))[0]
        cb = B.classes.get((m, M), ("-",))[0]
        print(f"{m.id} -> {M.id}: {ca} vs {cb}")
    equal = fbg.fbg_equal(A, B, by_profile=args.profile)
    print("equal" if equal else "different")
    return 0 if equal else 1


def cmd_iso(args) -> int:
    P = modelio.load(args.a)
    Q = modelio.load(args.b)
    mapping = core.are_isomorphic(P, Q)
    if mapping is None:
        print("not isomorphic")
        return 1
    for p in sorted(mapping):
        print(f"{_cell_str(p)} -> {_cell_str(mapping[p])}")
    return 0


def cmd_export_dot(args) -> int:
    _write(modelio.export_dot(modelio.load(args.input)), args.output)
    return 0


def _write(text: str, path):
    """Write text to the file at path, or to stdout without a path."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


MAX_PATHS_HELP = (
    "cap on the number of path classes from one minimal vertex to any one "
    "vertex; more raise PathExplosion (default %(default)s)"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="precubical",
        description="Precubical-set reductions and their bipartite-graph oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a document's complex")
    p.add_argument("input")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("info", help="summarize a complex")
    p.add_argument("input")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("gen", help="generate a fixture or a grid")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fixture", choices=modelio.FIXTURE_NAMES)
    group.add_argument("--grid", nargs=2, type=int, metavar=("M", "N"))
    p.add_argument("--holes", help="semicolon-separated i,j pairs")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("reduce", help="apply a single reduction")
    p.add_argument("input")
    p.add_argument(
        "--op",
        required=True,
        choices=[
            reductions.EDGE_COLLAPSE,
            reductions.SQUARE_ONE_FREE,
            reductions.SQUARE_TWO_FREE,
        ],
    )
    p.add_argument("--cell", required=True)
    p.add_argument("--a", type=int, choices=[1, 2])
    p.add_argument("--b", type=int, choices=[0, 1], required=True)
    p.add_argument("--allow-empty-y", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("auto-reduce", help="chain reductions")
    p.add_argument("input")
    p.add_argument("--recipe", help="recipe file, one 'kind cell [a] b' per line")
    p.add_argument("--json", action="store_true",
                   help="print a failing recipe step's certificate as JSON; the trail stays text")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_auto_reduce)

    p = sub.add_parser("fbg", help="fundamental bipartite graph table")
    p.add_argument("input")
    p.add_argument("--max-paths", type=int, default=fbg.DEFAULT_MAX_PATHS, help=MAX_PATHS_HELP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fbg)

    p = sub.add_parser("compare-fbg", help="compare two tables")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--max-paths", type=int, default=fbg.DEFAULT_MAX_PATHS, help=MAX_PATHS_HELP)
    p.add_argument("--profile", action="store_true", help="compare count profiles only")
    p.set_defaults(func=cmd_compare_fbg)

    p = sub.add_parser("iso", help="search for an isomorphism")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("export-dot", help="write a graphviz document")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_export_dot)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reads its arguments with, built on its first call
    and kept for the process; not at import, so importing stays cheap."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (DocumentSyntaxError, OutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationFailed as exc:
        for violation in exc.report:
            print(violation, file=sys.stderr)
        return 1
    except PrecubicalError as exc:
        # ConditionsFailed, GuaranteeLost, and RecipeStepFailed on a checked step
        if getattr(exc, "certificate", None) is not None:
            _print_certificate(exc.certificate, args.json)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
