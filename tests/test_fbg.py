import random
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from precubical import core, fbg, modelio
from precubical.cli import main
from precubical.core import CellRef, Complex
from precubical.errors import NotAcyclic, PathExplosion, UnknownCell

from conftest import glued_complexes, random_grid_complex
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
        assert fbg.fundamental_bipartite_graph(P) == brute_force_table(P)


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
