import json
import os
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from precubical import core, fbg, modelio
from precubical.cli import main
from precubical.core import CellRef, Complex
from precubical.errors import NotAcyclic, PathExplosion, UnknownCell

from conftest import from_edges, glued_complexes, random_glued_complex, random_grid_complex
from reference import all_cells, restrict


def v(i, j):
    return CellRef(0, f"({i},{j})")


class TestAcyclicity:
    def test_circle_cyclic(self, circle):
        assert not fbg.one_skeleton_is_acyclic(circle)

    def test_shared_memory_acyclic(self, shared_memory):
        assert fbg.one_skeleton_is_acyclic(shared_memory)

    def test_empty(self):
        assert fbg.one_skeleton_is_acyclic(Complex({}))

    def test_two_cycle(self):
        P = Complex(
            {0: ["a", "b"], 1: ["f", "g"]},
            {
                (1, "f"): {(1, 0): "a", (1, 1): "b"},
                (1, "g"): {(1, 0): "b", (1, 1): "a"},
            },
        )
        assert not fbg.one_skeleton_is_acyclic(P)


class TestEnumeration:
    def test_interval(self, interval):
        paths = fbg.enumerate_dipaths(interval, CellRef(0, "a0"), CellRef(0, "a1"))
        assert [p.edge_ids() for p in paths] == [("e",)]

    def test_standard_square_corners(self):
        P = core.standard_cube(2)
        paths = fbg.enumerate_dipaths(P, CellRef(0, "00"), CellRef(0, "11"))
        assert len(paths) == 2

    def test_shared_memory_lattice_count(self, shared_memory):
        paths = fbg.enumerate_dipaths(shared_memory, v(0, 0), v(3, 3))
        assert len(paths) == comb(6, 3)

    def test_lexicographic_order(self, shared_memory):
        paths = fbg.enumerate_dipaths(shared_memory, v(0, 0), v(3, 3))
        ids = [p.edge_ids() for p in paths]
        assert ids == sorted(ids)

    def test_empty_path_at_same_vertex(self, interval):
        paths = fbg.enumerate_dipaths(interval, CellRef(0, "a0"), CellRef(0, "a0"))
        assert [p.edges for p in paths] == [()]

    def test_cyclic_rejected(self, circle):
        with pytest.raises(NotAcyclic):
            fbg.enumerate_dipaths(circle, CellRef(0, "v"), CellRef(0, "v"))

    def test_unknown_vertex(self, interval):
        with pytest.raises(UnknownCell):
            fbg.enumerate_dipaths(interval, CellRef(0, "zz"), CellRef(0, "a1"))

    def test_path_cap(self, shared_memory):
        with pytest.raises(PathExplosion):
            fbg.enumerate_dipaths(shared_memory, v(0, 0), v(3, 3), max_paths=5)

    def test_path_cap_message(self, shared_memory):
        with pytest.raises(PathExplosion, match=r"max_paths=5 paths from '\(0,0\)' to '\(3,3\)'"):
            fbg.enumerate_dipaths(shared_memory, v(0, 0), v(3, 3), max_paths=5)


class TestDihomotopyClasses:
    def test_full_square_has_one_class(self):
        P = core.standard_cube(2)
        classes = fbg.dihomotopy_classes(P, CellRef(0, "00"), CellRef(0, "11"))
        assert len(classes) == 1
        assert len(classes[0]) == 2

    def test_shared_memory_has_two(self, shared_memory):
        classes = fbg.dihomotopy_classes(shared_memory, v(0, 0), v(3, 3))
        assert [len(c) for c in classes] == [10, 10]

    def test_hollow_square_has_two(self, square):
        hollow = restrict(
            square, [c for c in all_cells(square) if c.degree < 2]
        )
        classes = fbg.dihomotopy_classes(
            hollow, CellRef(0, "w00"), CellRef(0, "w11")
        )
        assert len(classes) == 2

    def test_classes_are_length_homogeneous(self, shared_memory):
        for cls in fbg.dihomotopy_classes(shared_memory, v(0, 0), v(3, 3)):
            lengths = {len(p) for p in cls}
            assert len(lengths) == 1


class TestTable:
    def test_double_edge(self, double_edge):
        table = fbg.fundamental_bipartite_graph(double_edge)
        assert table.count(CellRef(0, "u"), CellRef(0, "w")) == 2

    def test_shared_memory(self, shared_memory):
        table = fbg.fundamental_bipartite_graph(shared_memory)
        assert table.minimals == (v(0, 0),)
        assert table.maximals == (v(3, 3),)
        assert table.count(v(0, 0), v(3, 3)) == 2

    def test_interval(self, interval):
        table = fbg.fundamental_bipartite_graph(interval)
        assert table.count(CellRef(0, "a0"), CellRef(0, "a1")) == 1

    def test_representatives_are_lex_least(self, shared_memory):
        table = fbg.fundamental_bipartite_graph(shared_memory)
        _, reps = table.classes[(v(0, 0), v(3, 3))]
        classes = fbg.dihomotopy_classes(shared_memory, v(0, 0), v(3, 3))
        for rep, cls in zip(reps, classes):
            assert rep.edge_ids() == min(p.edge_ids() for p in cls)

    def test_cyclic_rejected(self, circle):
        with pytest.raises(NotAcyclic):
            fbg.fundamental_bipartite_graph(circle)

    def test_class_cap_message(self, double_edge):
        fbg.fundamental_bipartite_graph(double_edge, max_paths=2)
        with pytest.raises(
            PathExplosion, match=r"^2 classes of paths from 'u' reach 'w', more than max_paths=1$"
        ):
            fbg.fundamental_bipartite_graph(double_edge, max_paths=1)

    def test_class_cap_message_through_a_chain(self):
        # Three parallel edges u -> w, then a chain w -> x -> y: the chain
        # vertices skip the cap check, so the error must still name w.
        P = from_edges({"e1": ("u", "w"), "e2": ("u", "w"), "e3": ("u", "w"),
                        "c1": ("w", "x"), "c2": ("x", "y")})
        assert fbg.fundamental_bipartite_graph(P, max_paths=3).count(CellRef(0, "u"), CellRef(0, "y")) == 3
        with pytest.raises(
            PathExplosion, match=r"^3 classes of paths from 'u' reach 'w', more than max_paths=2$"
        ):
            fbg.fundamental_bipartite_graph(P, max_paths=2)

    def test_class_cap_counts_one_minimal_vertex_at_a_time(self):
        # As above, plus a second minimal vertex t with one edge into w: 4
        # classes reach w in all, but only 3 from u.
        P = from_edges({"e1": ("u", "w"), "e2": ("u", "w"), "e3": ("u", "w"), "f": ("t", "w"),
                        "c1": ("w", "x"), "c2": ("x", "y")})
        table = fbg.fundamental_bipartite_graph(P, max_paths=3)
        assert table.count(CellRef(0, "u"), CellRef(0, "y")) == 3
        assert table.count(CellRef(0, "t"), CellRef(0, "y")) == 1
        with pytest.raises(
            PathExplosion, match=r"^3 classes of paths from 'u' reach 'w', more than max_paths=2$"
        ):
            fbg.fundamental_bipartite_graph(P, max_paths=2)

    def test_empty_tables_of_unlisted_cells_are_ignored(self, interval):
        P = Complex({0: ["a0", "a1"], 1: ["e"]},
                    {(1, "e"): {(1, 0): "a0", (1, 1): "a1"}, (1, "x"): {}, (2, "s"): {}})
        assert fbg.fundamental_bipartite_graph(P) == fbg.fundamental_bipartite_graph(interval)

    def test_unreachable_pair_and_isolated_vertex(self):
        P = Complex(
            {0: ["a", "b", "c", "z"], 1: ["x", "y"]},
            {(1, "x"): {(1, 0): "a", (1, 1): "b"}, (1, "y"): {(1, 0): "c", (1, 1): "b"}},
        )
        table = fbg.fundamental_bipartite_graph(P)
        assert table.classes[(CellRef(0, "a"), CellRef(0, "z"))] == (0, ())
        [rep] = table.classes[(CellRef(0, "z"), CellRef(0, "z"))][1]
        assert rep.edges == () and rep.start == rep.end == CellRef(0, "z")


def brute_force_table(P):
    """The table assembled from the path-enumerating reference."""
    minimals = tuple(sorted(core.minimal_vertices(P)))
    maximals = tuple(sorted(core.maximal_vertices(P)))
    classes = {}
    for m in minimals:
        for M in maximals:
            partition = fbg.dihomotopy_classes(P, m, M)
            classes[(m, M)] = (len(partition), tuple(cls[0] for cls in partition))
    return fbg.FbgTable(minimals, maximals, classes)


class TestAgainstEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_random_grids(self, seed):
        P = random_grid_complex(random.Random(seed), max_side=4)
        assert fbg.fundamental_bipartite_graph(P) == brute_force_table(P)

    @settings(max_examples=60, deadline=None)
    @given(glued_complexes())
    def test_glued_complexes(self, P):
        assume(fbg.one_skeleton_is_acyclic(P))
        table = fbg.fundamental_bipartite_graph(P)
        assert table == brute_force_table(P)
        # the order `fbg` and `fbg --json` print the pairs in
        assert list(table.classes) == sorted(table.classes, key=lambda p: (p[0].id, p[1].id))


# The unit square on corners 00, 01, 10, 11, as the standard 2-cube names them.
SQUARE_EDGES = {"0*": ("00", "01"), "1*": ("10", "11"), "*0": ("00", "10"), "*1": ("01", "11")}
SQUARE = {"**": ("0*", "1*", "*0", "*1")}

# Shapes where a vertex has one in-edge and tops no square, so that its
# classes pass straight through, moved or copied.
PASS_THROUGH = {
    "chain-into-square": from_edges({"c0": ("x0", "x1"), "c1": ("x1", "00"), **SQUARE_EDGES}, SQUARE),
    "square-then-chain": from_edges({**SQUARE_EDGES, "c0": ("11", "y1"), "c1": ("y1", "y2")}, SQUARE),
    "hollow-square-then-chain": from_edges(
        {**SQUARE_EDGES, "c0": ("11", "y1"), "c1": ("y1", "y2"), "c2": ("y2", "y3")}
    ),
    # u has two classes and out-degree 2: each branch starts a chain; the
    # first branch taken copies u's representatives, the last moves them.
    "branch-into-chains": from_edges({
        "e1": ("m", "u"), "e2": ("m", "u"), "a1": ("u", "a"), "a2": ("a", "b"),
        "b1": ("u", "c"), "b2": ("c", "d"), "b3": ("d", "b"), "t": ("u", "z"),
    }),
    "double-edges-then-chain": from_edges(
        {"e1": ("u", "w"), "e2": ("u", "w"), "c1": ("w", "x"), "c2": ("x", "y")}
    ),
    "isolated-vertex": from_edges({"c0": ("a", "b")}, vertices=["z"]),
    # Two minimal vertices of out-degree 1 sharing a chain: each run from a
    # minimal vertex moves its own representatives.
    "minimals-of-out-degree-1": from_edges(
        {"p": ("m1", "u"), "q": ("m2", "u"), "c1": ("u", "v"), "c2": ("v", "w"), **SQUARE_EDGES,
         "r": ("w", "00")}, SQUARE
    ),
}


class TestPassThrough:
    @pytest.mark.parametrize("name", PASS_THROUGH)
    def test_against_enumeration(self, name):
        P = PASS_THROUGH[name]
        assert fbg.fundamental_bipartite_graph(P) == brute_force_table(P)

    def test_answer_does_not_depend_on_the_hash_seed(self, tmp_path):
        rng = random.Random(7)
        glued = next(
            P for P in (random_glued_complex(rng) for _ in range(1000))
            if fbg.one_skeleton_is_acyclic(P) and len(core.minimal_vertices(P)) >= 3
        )
        grid = modelio.grid_with_holes(4, 5, {(1, 1), (2, 3)})
        code = "import sys; from precubical.cli import main; sys.exit(main(sys.argv[1:]))"
        for name, P in (("glued", glued), ("grid", grid)):
            path = tmp_path / f"{name}.pcs"
            modelio.save(P, path)
            outs = []
            for seed in ("0", "1"):
                env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONHASHSEED": seed}
                argv = [sys.executable, "-c", code, "fbg", str(path), "--json"]
                run = subprocess.run(argv, env=env, capture_output=True, text=True)
                assert run.returncode == 0, run.stderr
                outs.append(run.stdout)
            assert outs[0] == outs[1]


class TestLongPath:
    """Paths far deeper than the interpreter's recursion limit."""

    LENGTH = 1500

    @pytest.fixture(scope="class")
    def long_path(self):
        return Complex(
            {0: [f"x{t}" for t in range(self.LENGTH + 1)], 1: [f"e{t}" for t in range(self.LENGTH)]},
            {(1, f"e{t}"): {(1, 0): f"x{t}", (1, 1): f"x{t + 1}"} for t in range(self.LENGTH)},
        )

    def test_enumeration(self, long_path):
        end = CellRef(0, f"x{self.LENGTH}")
        [path] = fbg.enumerate_dipaths(long_path, CellRef(0, "x0"), end)
        assert len(path) == self.LENGTH

    def test_table(self, long_path):
        table = fbg.fundamental_bipartite_graph(long_path)
        assert table.minimals == (CellRef(0, "x0"),)
        [rep] = table.classes[(CellRef(0, "x0"), CellRef(0, f"x{self.LENGTH}"))][1]
        assert rep.edge_ids() == tuple(f"e{t}" for t in range(self.LENGTH))

    def test_cli_fbg(self, long_path, tmp_path, capsys):
        out = tmp_path / "path.pcs"
        modelio.save(long_path, out)
        assert main(["fbg", str(out)]) == 0
        assert f"x0 -> x{self.LENGTH}: 1 class" in capsys.readouterr().out


class TestEquality:
    def test_reflexive(self, shared_memory):
        table = fbg.fundamental_bipartite_graph(shared_memory)
        assert fbg.fbg_equal(table, table)

    def test_vertex_ids_matter_but_profile_does_not(
        self, shared_memory, double_edge
    ):
        A = fbg.fundamental_bipartite_graph(shared_memory)
        B = fbg.fundamental_bipartite_graph(double_edge)
        assert not fbg.fbg_equal(A, B)
        assert fbg.fbg_equal(A, B, by_profile=True)

    def test_counts_matter(self, interval, double_edge):
        A = fbg.fundamental_bipartite_graph(interval)
        B = fbg.fundamental_bipartite_graph(double_edge)
        assert not fbg.fbg_equal(A, B)
        assert not fbg.fbg_equal(A, B, by_profile=True)


class TestDualityInvariance:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_opposite_swaps_roles(self, seed):
        P = random_grid_complex(random.Random(seed), max_side=3)
        table = fbg.fundamental_bipartite_graph(P)
        dual = fbg.fundamental_bipartite_graph(core.opposite(P))
        assert set(dual.minimals) == set(table.maximals)
        assert set(dual.maximals) == set(table.minimals)
        for (m, M), (count, _) in table.classes.items():
            assert dual.classes[(M, m)][0] == count

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_transpose_fixes_table(self, seed):
        P = random_grid_complex(random.Random(seed), max_side=3)
        table = fbg.fundamental_bipartite_graph(P)
        transposed = fbg.fundamental_bipartite_graph(core.transpose(P))
        assert fbg.fbg_equal(table, transposed)

    def test_no_squares_means_counts_equal_paths(self, double_edge):
        table = fbg.fundamental_bipartite_graph(double_edge)
        paths = fbg.enumerate_dipaths(
            double_edge, CellRef(0, "u"), CellRef(0, "w")
        )
        assert table.count(CellRef(0, "u"), CellRef(0, "w")) == len(paths)


def pendant_grid(n, k):
    """The n x n grid with holes at (1, 1) and (n-2, n-2), plus k pendant
    pairs: for each t < k, edges pa_t -> g and g -> pb_t, where g is grid
    vertex number 7t mod V in sorted id order."""
    G = modelio.grid_with_holes(n, n, {(1, 1), (n - 2, n - 2)})
    cells = {d: list(G.cell_ids(d)) for d in G.degrees()}
    faces = {(d, c): G.faces_of(d, c) for d in (1, 2) for c in G.cell_ids(d)}
    grid_vertices = sorted(G.cell_ids(0))
    for t in range(k):
        g = grid_vertices[7 * t % len(grid_vertices)]
        cells[0] += [f"pa{t}", f"pb{t}"]
        cells[1] += [f"a{t}", f"b{t}"]
        faces[(1, f"a{t}")] = {(1, 0): f"pa{t}", (1, 1): g}
        faces[(1, f"b{t}")] = {(1, 0): g, (1, 1): f"pb{t}"}
    return Complex(cells, faces)


class TestPendantFamily:
    @pytest.mark.parametrize("k, nonzero", [(50, 798), (200, 10_796)])
    def test_nonzero_pairs(self, k, nonzero):
        table = fbg.fundamental_bipartite_graph(pendant_grid(32, k))
        assert sum(1 for count, _ in table.classes.values() if count) == nonzero

    def test_small_member_against_enumeration(self):
        P = pendant_grid(4, 3)
        table = fbg.fundamental_bipartite_graph(P)
        assert table == brute_force_table(P)
        empty = [entry for entry in table.classes.values() if not entry[0]]
        assert empty and all(entry is empty[0] for entry in empty)
        assert empty[0] == (0, ())


class TestLazyRepresentatives:
    """A table's representatives keep their edge ids: no edge CellRef is
    built until `edges` is read."""

    LENGTH = 200

    @pytest.fixture
    def path(self):
        return from_edges({f"e{t}": (f"x{t:03}", f"x{t + 1:03}") for t in range(self.LENGTH)})

    @pytest.fixture
    def edge_refs(self, monkeypatch):
        """The ids of the edge CellRefs built while the test runs."""
        built, init = [], CellRef.__init__

        def counting_init(self, degree, id):
            if degree == 1:
                built.append(id)
            init(self, degree, id)

        monkeypatch.setattr(CellRef, "__init__", counting_init)
        return built

    def ends(self):
        return CellRef(0, "x000"), CellRef(0, f"x{self.LENGTH:03}")

    def test_table_builds_no_edge_cellref(self, path, edge_refs):
        table = fbg.fundamental_bipartite_graph(path)
        [rep] = table.classes[self.ends()][1]
        assert len(rep) == self.LENGTH
        assert rep.edge_ids() == tuple(f"e{t}" for t in range(self.LENGTH))
        assert edge_refs == []

    def test_cli_fbg_json_builds_no_edge_cellref(self, path, edge_refs, tmp_path, capsys):
        out = tmp_path / "path.pcs"
        modelio.save(path, out)
        assert main(["fbg", str(out), "--json"]) == 0
        [entry] = json.loads(capsys.readouterr().out)["classes"]
        assert entry["representatives"] == [[f"e{t}" for t in range(self.LENGTH)]]
        assert edge_refs == []

    def test_edges_are_built_once_on_first_read(self, path, edge_refs):
        [rep] = fbg.fundamental_bipartite_graph(path).classes[self.ends()][1]
        assert edge_refs == []
        edges = rep.edges
        assert rep.edges is edges
        assert edge_refs == [f"e{t}" for t in range(self.LENGTH)]
        assert edges == tuple(CellRef(1, f"e{t}") for t in range(self.LENGTH))

    def test_equals_and_hashes_like_a_path_built_from_cellrefs(self, path):
        [rep] = fbg.fundamental_bipartite_graph(path).classes[self.ends()][1]
        start, end = self.ends()
        eager = fbg.EdgePath(start, end, tuple(CellRef(1, f"e{t}") for t in range(self.LENGTH)))
        assert rep == eager and eager == rep
        assert hash(rep) == hash(eager)
        assert repr(rep) == repr(eager)
        assert rep != fbg.EdgePath(start, end, eager.edges[:-1])
        assert rep != "x" and rep.__eq__("x") is NotImplemented
        assert eager.edge_ids() == rep.edge_ids() and len(eager) == len(rep)

    @pytest.mark.parametrize("field", ["start", "end", "edges"])
    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    def test_fields_are_frozen(self, path, field, read_first):
        [rep] = fbg.fundamental_bipartite_graph(path).classes[self.ends()][1]
        if read_first:
            rep.edges
        with pytest.raises(FrozenInstanceError):
            setattr(rep, field, ())
        with pytest.raises(FrozenInstanceError):
            delattr(rep, field)
        assert rep.edge_ids() == tuple(f"e{t}" for t in range(self.LENGTH))
