"""The four workloads: seeded inputs, one model's pipeline, its check.

Each workload builds one round of models in set-up: a fixed mix of model
sizes, so that every run measures the same mix whatever the seed. The
seed places holes, picks path lengths and renames cells. The harness
repeats the round until the time is up.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
from dataclasses import dataclass, field

import reference


@dataclass
class Model:
    label: str
    first: str  # the one minimal vertex the answer must name
    last: str  # the one maximal vertex
    classes: int  # dihomotopy classes between them
    cells: int  # cells of the input complex
    data: dict = field(default_factory=dict)
    known_failure: tuple = ()  # exception types that are a declared limit


def _holes(rng, m, n, k, first_row=0):
    spots = [(i, j) for i in range(first_row, m) for j in range(n)]
    return tuple(sorted(rng.sample(spots, k)))


def _block_holes(rng, side, k, start, seeded_top=True):
    """k holes, hole t in block start + t of the 3x3 partition of the
    grid, in the block's first row. The seed picks one column per band of
    columns (in the top band of blocks only if seeded_top), so the holes'
    order, and with it the class count and the size of the reduced
    complex, does not depend on the seed."""
    bands = [range(b * side // 3, (b + 1) * side // 3) for b in range(3)]
    columns = {}
    holes = []
    for block in range(start, start + k):
        row, band = bands[block % 9 // 3][0], block % 3
        if band not in columns:
            seeded = seeded_top or row >= bands[1][0]
            columns[band] = rng.choice(bands[band]) if seeded else bands[band][0]
        holes.append((row, columns[band]))
    return tuple(sorted(holes))


def _quiet_main(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _table_ok(model, table):
    counts = [
        (m.id, M.id, count, len(reps))
        for (m, M), (count, reps) in sorted(table.classes.items())
    ]
    return reference.expected_table_ok(
        [v.id for v in table.minimals], [v.id for v in table.maximals],
        counts, model.first, model.last, model.classes,
    )


def grid_model(m, n, holes, **data):
    cells, _ = reference.grid_tables(m, n, holes)
    return Model(
        f"grid {m}x{n} holes {holes}", "(0,0)", f"({m},{n})",
        reference.grid_class_count(holes), reference.cell_count(cells),
        dict(m=m, n=n, holes=holes, **data),
    )


def _path_model(length, **data):
    return Model(f"path {length}", "x0", f"x{length}", 1, 2 * length + 1, dict(length=length, **data))


def _path_complex(pc, length):
    cells, faces = reference.path_tables(length)
    return pc["core"].Complex(cells, faces)


def _path_lengths(rng, centre, spread, count=2):
    # Paths whose lengths sum to count * centre, so that their total
    # cost drifts little with the seed.
    u = rng.randint(0, spread)
    return (centre + u, centre - u, centre)[:count]


class GreedyCli:
    """gen --grid -> auto-reduce (greedy) -> fbg --json through cli.main."""

    name = "greedy_cli"

    def __init__(self, sides=(5, 6, 7), hole_counts=(1, 3), path_length=200, paths=3):
        self.sides, self.hole_counts, self.path_length, self.paths = sides, hole_counts, path_length, paths

    def build(self, rng, pc, workdir):
        models = []
        for side in self.sides:
            # Greedy's cost depends steeply on where holes sit in the top
            # rows, which its scan meets first, so the seed does not move
            # the holes of the top band of blocks.
            start = side  # a different first block per side
            for k in self.hole_counts:
                models.append(grid_model(side, side, _block_holes(rng, side, k, start, seeded_top=False)))
                start += k
        for length in _path_lengths(rng, self.path_length, self.path_length // 10, self.paths):
            path = os.path.join(workdir, f"path-{length}.pcs")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(pc["modelio"].serialize(_path_complex(pc, length)))
            models.append(_path_model(length, path=path))
        return models

    def run(self, model, pc, workdir):
        cli = pc["cli"]
        codes = []
        source = model.data.get("path")
        if source is None:
            source = os.path.join(workdir, "model.pcs")
            holes = ";".join(f"{i},{j}" for i, j in model.data["holes"])
            argv = ["gen", "--grid", str(model.data["m"]), str(model.data["n"]), "-o", source]
            codes.append(_quiet_main(cli, argv + (["--holes", holes] if holes else []))[0])
        reduced = os.path.join(workdir, "reduced.pcs")
        codes.append(_quiet_main(cli, ["auto-reduce", source, "-o", reduced])[0])
        code, text = _quiet_main(cli, ["fbg", reduced, "--json"])
        codes.append(code)
        return codes, text, reduced

    def check(self, model, answer):
        codes, text, reduced = answer
        if any(codes):
            return False, None
        payload = json.loads(text)
        counts = [
            (c["from"], c["to"], c["count"], len(c["representatives"]))
            for c in payload["classes"]
        ]
        ok = reference.expected_table_ok(
            payload["minimals"], payload["maximals"], counts,
            model.first, model.last, model.classes,
        )
        with open(reduced, encoding="utf-8") as fh:
            cells = reference.document_cell_count(fh.read())
        return ok and cells > 0, cells


class RecipeReplay:
    """grid_reduction_recipe -> format/parse -> recipe auto_reduce -> fbg."""

    name = "recipe_replay"

    def __init__(self, sides=(7, 8, 9), hole_counts=(2, 3, 4), draws=3):
        self.sides, self.hole_counts, self.draws = sides, hole_counts, draws

    def build(self, rng, pc, workdir):
        models = []
        for side, k in zip(self.sides, self.hole_counts):
            for draw in range(self.draws):
                # Each draw of a side starts at another block.
                holes = _block_holes(rng, side, k, side + draw * k)
                grid = pc["modelio"].grid_with_holes(side, side, holes)
                models.append(grid_model(side, side, holes, complex=grid))
        return models

    def run(self, model, pc, workdir):
        recipes, reductions = pc["recipes"], pc["reductions"]
        steps = recipes.grid_reduction_recipe(model.data["m"], model.data["n"], model.data["holes"])
        steps = recipes.parse_recipe(recipes.format_recipe(steps))
        Q, _ = reductions.auto_reduce(model.data["complex"], policy="recipe", recipe=steps)
        return Q, pc["fbg"].fundamental_bipartite_graph(Q)

    def check(self, model, answer):
        Q, table = answer
        return _table_ok(model, table), sum(len(Q.cell_ids(d)) for d in Q.degrees())


class FbgOracle:
    """Brute-force fundamental_bipartite_graph on unreduced inputs."""

    name = "fbg_oracle"

    def __init__(self, sides=range(5, 9), draws=2, hole_counts=(0, 1, 2, 2, 3, 4), path_length=1200):
        self.shapes = [(m, n) for m in sides for n in sides if m != n]
        self.draws, self.hole_counts, self.path_length = draws, hole_counts, path_length

    def build(self, rng, pc, workdir):
        models = []
        for _ in range(self.draws):
            counts = rng.sample(self.hole_counts * 2, len(self.hole_counts) * 2)
            for (m, n), k in zip(self.shapes, itertools.cycle(counts)):
                holes = _holes(rng, m, n, k)
                grid = pc["modelio"].grid_with_holes(m, n, holes)
                models.append(grid_model(m, n, holes, complex=grid))
        # Paths deeper than the interpreter's recursion limit: the
        # recursive path walk fails on them today (a declared limit).
        for length in _path_lengths(rng, self.path_length, self.path_length // 20):
            model = _path_model(length, complex=_path_complex(pc, length))
            model.known_failure = (RecursionError,)
            models.append(model)
        return models

    def run(self, model, pc, workdir):
        return pc["fbg"].fundamental_bipartite_graph(model.data["complex"])

    def check(self, model, table):
        return _table_ok(model, table), model.cells


class IsoRelabel:
    """parse (with validation) a renamed, shuffled document, then
    are_isomorphic against the original; half the pairs have a hole moved."""

    name = "iso_relabel"

    def __init__(self, sides=(5, 6, 7, 8, 9), draws=6):
        self.sides, self.draws = sides, draws

    def build(self, rng, pc, workdir):
        return [
            self._pair(rng, pc, side, 1 + (draw + side) % 3, moved, (draw + rng.random()) / self.draws)
            for draw in range(self.draws)
            for side in self.sides
            for moved in (False, True)
        ]

    @staticmethod
    def _pair(rng, pc, side, k, moved, rank):
        # Holes stay out of row 0, the first row of are_isomorphic's
        # search order: a hole there makes the backtracking exponential
        # (a declared limit, see README.md).
        holes = _holes(rng, side, side, k, first_row=1)
        p_cells, p_faces = reference.grid_tables(side, side, holes)
        q_holes = holes
        if moved:
            spots = [(i, j) for i in range(1, side) for j in range(side) if (i, j) not in holes]
            q_holes = tuple(sorted(holes[1:] + (rng.choice(spots),)))
        cells, faces = reference.grid_tables(side, side, q_holes)
        rename = {}
        for degree, ids in cells.items():
            names = rng.sample(range(16 ** 6), len(ids))
            if degree == 2 and not moved:
                # are_isomorphic tries Q's squares in name order for P's
                # first square, so an isomorphic pair costs more the later
                # that square's image comes. The draws of a side spread
                # its rank evenly.
                first, target = ids.index(min(ids)), names.index(sorted(names)[int(rank * len(ids))])
                names[first], names[target] = names[target], names[first]
            rename.update({(degree, c): f"c{x:06x}" for c, x in zip(ids, names)})
        q_cells = {d: [rename[(d, c)] for c in ids] for d, ids in cells.items()}
        q_faces = {
            (d, rename[(d, c)]): {key: rename[(d - 1, f)] for key, f in table.items()}
            for (d, c), table in faces.items()
        }
        order = [(d, c) for d, ids in q_cells.items() for c in ids]
        rng.shuffle(order)
        return Model(
            f"pair {side}x{side} holes {holes} vs {q_holes}", "", "", 0,
            reference.cell_count(p_cells),
            dict(
                isomorphic=not moved,
                original=pc["modelio"].grid_with_holes(side, side, holes),
                text=reference.write_document(q_cells, q_faces, order),
                p=(p_cells, p_faces), q=(q_cells, q_faces),
            ),
        )

    def run(self, model, pc, workdir):
        Q = pc["modelio"].parse(model.data["text"])
        return pc["core"].are_isomorphic(model.data["original"], Q)

    def check(self, model, mapping):
        if not model.data["isomorphic"]:
            return mapping is None, model.cells
        ok = mapping is not None and reference.mapping_is_isomorphism(
            mapping, *model.data["p"], *model.data["q"]
        )
        return ok, model.cells


WORKLOADS = {w.name: w for w in (GreedyCli(), RecipeReplay(), FbgOracle(), IsoRelabel())}
