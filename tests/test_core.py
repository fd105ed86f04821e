import copy
import dataclasses
import itertools
import pickle
import random
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from precubical import core, modelio
from precubical.core import CellRef, Complex
from precubical.errors import OutOfRange, PrecubicalError, UnknownCell, ValidationFailed

from conftest import from_edges, glued_complexes, random_grid_complex, relabelled
from reference import all_cells, cube_morphism, is_subcomplex, restrict, squares_on
from reference import stars as reference_stars


S = CellRef(2, "s")


# Parallel edges a -> b and c -> d, loops at c and d, and squares that share
# all four sides or three of them: under most relabellings, the isomorphism
# search forces an edge onto one image and then meets it with another.
CLASHING = from_edges(
    {"e0": ("a", "b"), "e4": ("a", "b"), "e2": ("a", "c"), "e3": ("b", "d"), "e1": ("c", "d"),
     "e7": ("c", "d"), "e5": ("c", "c"), "e6": ("d", "d"), "e8": ("ta", "a"), "e9": ("tb", "b"),
     "e10": ("tc", "c")},
    {"s0": ("e0", "e1", "e2", "e3"), "s1": ("e0", "e1", "e2", "e3"), "s2": ("e4", "e1", "e2", "e3"),
     "s4": ("e4", "e7", "e2", "e3"), "s3": ("e1", "e1", "e5", "e6")},
)


# Irregular cells, with the sizes of their levels of iterated faces.
FALLING_SHORT = [
    # a loop edge, d_1^0 e = d_1^1 e
    ({0: ["v"], 1: ["e"]}, {(1, "e"): {(1, 0): "v", (1, 1): "v"}}, [1, 1]),
    # d_1^0 s = d_2^0 s: three edges, short at the edge level
    ({0: ["p", "q", "r"], 1: ["a", "b", "d"], 2: ["s"]},
     {(1, "a"): {(1, 0): "p", (1, 1): "q"},
      (1, "b"): {(1, 0): "q", (1, 1): "r"},
      (1, "d"): {(1, 0): "q", (1, 1): "r"},
      (2, "s"): {(1, 0): "a", (1, 1): "b", (2, 0): "a", (2, 1): "d"}},
     [1, 3, 3]),
    # four edges, but d_1^1 d_1^0 s = d_1^0 d_1^1 s: short only at the vertex level
    ({0: ["p", "q", "r"], 1: ["a", "b", "c", "d"], 2: ["s"]},
     {(1, "a"): {(1, 0): "p", (1, 1): "q"},
      (1, "c"): {(1, 0): "p", (1, 1): "q"},
      (1, "b"): {(1, 0): "q", (1, 1): "r"},
      (1, "d"): {(1, 0): "q", (1, 1): "r"},
      (2, "s"): {(1, 0): "a", (1, 1): "b", (2, 0): "c", (2, 1): "d"}},
     [1, 4, 3]),
]
FALLING_SHORT_IDS = ["loop-edge", "repeated-edge", "repeated-corner"]

# A regular square: edges a: p -> q, b: r -> w, c: p -> r, d: q -> w.
REGULAR_SQUARE = (
    {0: ["p", "q", "r", "w"], 1: ["a", "b", "c", "d"], 2: ["s"]},
    {(1, "a"): {(1, 0): "p", (1, 1): "q"},
     (1, "b"): {(1, 0): "r", (1, 1): "w"},
     (1, "c"): {(1, 0): "p", (1, 1): "r"},
     (1, "d"): {(1, 0): "q", (1, 1): "w"},
     (2, "s"): {(1, 0): "a", (1, 1): "b", (2, 0): "c", (2, 1): "d"}},
)


def rewire(P: Complex, cell: CellRef, i: int, k: int, new_id: str) -> Complex:
    cells = {n: list(P.cell_ids(n)) for n in P.degrees()}
    faces = {
        (n, cid): P.face_table(CellRef(n, cid))
        for n in P.degrees()
        if n > 0
        for cid in P.cell_ids(n)
    }
    faces[(cell.degree, cell.id)][(i, k)] = new_id
    return Complex(cells, faces)


class TestCellRef:
    """A CellRef is a frozen, ordered dataclass, whatever its __init__ does."""

    def test_fields_cannot_be_set_or_deleted(self):
        cell = CellRef(1, "e")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cell.id = "f"
        with pytest.raises(dataclasses.FrozenInstanceError):
            cell.degree = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            del cell.id
        assert cell == CellRef(1, "e")

    def test_equal_hashed_and_ordered_by_degree_then_id(self):
        assert CellRef(1, "e") == CellRef(1, "e") and hash(CellRef(1, "e")) == hash(CellRef(1, "e"))
        assert CellRef(1, "e") != CellRef(0, "e") and CellRef(1, "e") != CellRef(1, "f")
        assert sorted([CellRef(1, "a"), CellRef(0, "z"), CellRef(1, "B"), CellRef(0, "a")]) == [
            CellRef(0, "a"), CellRef(0, "z"), CellRef(1, "B"), CellRef(1, "a")]
        assert CellRef(0, "z") < CellRef(1, "a") <= CellRef(1, "a") < CellRef(1, "b")
        assert len({CellRef(0, "a"), CellRef(0, "a"), CellRef(1, "a")}) == 2

    def test_never_equal_to_a_tuple(self):
        assert CellRef(0, "a") != (0, "a")
        assert (0, "a") != CellRef(0, "a")
        with pytest.raises(TypeError):
            CellRef(0, "a") < (0, "b")

    def test_repr(self):
        assert repr(CellRef(2, "s")) == "CellRef(2, 's')"

    def test_fields_and_replace(self):
        assert [f.name for f in dataclasses.fields(CellRef)] == ["degree", "id"]
        assert dataclasses.replace(CellRef(1, "e"), id="f") == CellRef(1, "f")
        assert dataclasses.replace(CellRef(1, "e"), degree=2) == CellRef(2, "e")
        assert dataclasses.astuple(CellRef(1, "e")) == (1, "e")
        assert CellRef(degree=1, id="e") == CellRef(1, "e")

    def test_pickle_and_copy(self):
        cell = CellRef(2, "s")
        for other in (pickle.loads(pickle.dumps(cell)), copy.copy(cell), copy.deepcopy(cell)):
            assert other == cell and hash(other) == hash(cell) and repr(other) == repr(cell)
            with pytest.raises(dataclasses.FrozenInstanceError):
                other.id = "t"


class TestValidate:
    def test_square_is_valid(self, square):
        assert core.validate(square) == []

    def test_broken_identity_is_reported_once(self, square):
        # d_1^1(d_2^0 s) becomes w00 while d_1^0(d_1^1 s) stays w10
        broken = rewire(square, CellRef(1, "eB"), 1, 1, "w00")
        report = core.validate(broken)
        assert len(report) == 1
        (violation,) = report
        assert violation.kind == "identity"
        assert violation.cell == S
        assert violation.indices == (1, 2, 1, 0)

    def test_circle_is_valid(self, circle):
        assert core.validate(circle) == []

    def test_dangling_face(self, interval):
        broken = rewire(interval, CellRef(1, "e"), 1, 1, "missing")
        report = core.validate(broken)
        assert [v.kind for v in report] == ["dangling-face"]

    def test_duplicate_id(self):
        P = Complex({0: ["a", "a"]})
        report = core.validate(P)
        assert [v.kind for v in report] == ["duplicate-id"]

    def test_repeats_are_reported_per_extra_copy_in_a_degree_that_has_them(self):
        P = Complex({0: ["a", "b", "a", "c", "a"], 1: ["e", "f"], 2: ["s", "s"]},
                    {(1, "e"): {(1, 0): "a", (1, 1): "b"}, (1, "f"): {(1, 0): "b", (1, 1): "c"}})
        duplicates = [v for v in core.validate(P) if v.kind == "duplicate-id"]
        assert [(v.cell, v.message) for v in duplicates] == [
            (CellRef(0, "a"), "id 'a' repeated in degree 0"),
            (CellRef(0, "a"), "id 'a' repeated in degree 0"),
            (CellRef(2, "s"), "id 's' repeated in degree 2"),
        ]

    def test_a_degree_that_is_not_an_int_is_out_of_range(self):
        with pytest.raises(OutOfRange, match="degree '0'"):
            Complex({"0": ["a"]})

    def test_ids_that_are_not_a_collection_are_out_of_range(self):
        with pytest.raises(OutOfRange, match="degree 0"):
            Complex({0: 5})

    def test_faces_that_are_not_a_mapping_are_out_of_range(self):
        with pytest.raises(OutOfRange, match=r"faces must map .* not \[1, 2\]"):
            Complex({0: ["a"]}, [1, 2])

    def test_a_face_table_of_none_is_out_of_range(self):
        with pytest.raises(OutOfRange, match=r"cell \(1, 'e'\): None is not a face table"):
            Complex({0: ["a"], 1: ["e"]}, {(1, "e"): None})

    def test_a_position_that_is_not_a_sequence_is_out_of_range(self):
        with pytest.raises(OutOfRange, match=r"cell \(0, 'a'\): 5 is not a position"):
            Complex({0: ["a"]}, {}, {(0, "a"): 5})

    def test_an_unhashable_id_is_out_of_range(self):
        with pytest.raises(OutOfRange, match=r"degree 0: id \['a'\] is not a nonempty str"):
            Complex({0: [["a"]]})

    def test_an_unhashable_face_id_is_out_of_range(self):
        # validate would otherwise raise TypeError: unhashable type: 'list'
        with pytest.raises(OutOfRange, match=r"cell \(1, 'e'\): face id \['a'\] is not"):
            Complex({0: ["a", "b"], 1: ["e"]}, {(1, "e"): {(1, 0): ["a"], (1, 1): "b"}})

    @pytest.mark.parametrize("table", ["faces", "coords"])
    @pytest.mark.parametrize("key", ["x", (1,), (1, "e", 0), (True, "e"), ("1", "e")],
                             ids=["str", "1-tuple", "3-tuple", "bool-degree", "str-degree"])
    def test_a_cell_key_that_is_not_a_degree_id_pair_is_out_of_range(self, table, key):
        # validate would otherwise raise TypeError building CellRef(*key)
        value = {"faces": {(1, 0): "a"}, "coords": (0, 0)}[table]
        with pytest.raises(OutOfRange, match=f"{table} key .* is not a \\(degree, id\\) pair"):
            Complex({0: ["a"]}, **{table: {key: value}})

    @pytest.mark.parametrize("key", ["zz", (1,), (True, 0), (1, "0"), (1.0, 0)],
                             ids=["str", "1-tuple", "bool-i", "str-k", "float-i"])
    def test_a_face_key_that_is_not_an_int_pair_is_out_of_range(self, key):
        # serialize would otherwise raise TypeError sorting the face keys
        with pytest.raises(OutOfRange, match=r"cell \(1, 'e'\): face key .* is not an \(i, k\) pair"):
            Complex({0: ["a", "b"], 1: ["e"]}, {(1, "e"): {key: "a", (1, 1): "b"}})

    def test_repr_counts_each_id_once(self):
        assert repr(Complex({0: ["a", "a", "b"], 1: ["e"]})) == "Complex({0: 2, 1: 1})"

    def test_a_vertex_table_holds_no_entry(self):
        # a vertex has no face positions: its empty table is clean, any entry is refused
        assert core.validate(Complex({0: ["a"]}, {(0, "a"): {}})) == []
        with pytest.raises(OutOfRange, match=r"cell \(0, 'a'\): face key \(1, 0\)"):
            Complex({0: ["a"]}, {(0, "a"): {(1, 0): "a"}})

    def test_missing_face_entry(self):
        P = Complex({0: ["a", "b"], 1: ["e"]}, {(1, "e"): {(1, 0): "a"}})
        report = core.validate(P)
        assert [v.kind for v in report] == ["missing-face"]

    def test_unlisted_edge(self):
        # the edge's face table is given, but "e" is missing from the cell lists
        P = Complex({0: ["a"]}, {(1, "e"): {(1, 0): "a", (1, 1): "a"}})
        report = core.validate(P)
        assert [(v.kind, v.cell) for v in report] == [("unlisted-cell", CellRef(1, "e"))]
        assert "'e' is not listed in degree 1" in str(report[0])

    def test_unlisted_square(self, square):
        faces = {(n, c.id): square.face_table(c) for n in (1, 2) for c in square.cells(n)}
        faces[(2, "t")] = dict(faces[(2, "s")])
        faces[(1, "gone")] = {}  # an empty table gives nothing to lose
        P = Complex({n: square.cell_ids(n) for n in square.degrees()}, faces)
        report = core.validate(P)
        assert [(v.kind, v.cell) for v in report] == [("unlisted-cell", CellRef(2, "t"))]


class TestStandardCube:
    def test_negative_degree_is_out_of_range(self):
        with pytest.raises(OutOfRange):
            core.standard_cube(-1)

    def test_point(self):
        P = core.standard_cube(0)
        assert P.cell_ids(0) == ("()",)
        assert P.dimension == 0

    def test_interval(self):
        P = core.standard_cube(1)
        assert set(P.cell_ids(0)) == {"0", "1"}
        assert P.face(CellRef(1, "*"), 1, 0) == CellRef(0, "0")
        assert P.face(CellRef(1, "*"), 1, 1) == CellRef(0, "1")

    def test_square_counts_and_faces(self):
        P = core.standard_cube(2)
        assert (P.size(0), P.size(1), P.size(2)) == (4, 4, 1)
        top = CellRef(2, "**")
        assert P.face(top, 1, 0) == CellRef(1, "0*")
        assert P.face(top, 2, 1) == CellRef(1, "*1")

    @pytest.mark.parametrize("n", range(5))
    def test_valid_and_counts(self, n):
        P = core.standard_cube(n)
        assert core.validate(P) == []
        # binomial(n, r) * 2^(n-r) cells of degree r
        from math import comb

        for r in range(n + 1):
            assert P.size(r) == comb(n, r) * 2 ** (n - r)


class TestCubeMorphism:
    def test_square_image(self, square):
        image = cube_morphism(square, S).assignment
        assert len(image) == 9
        assert image[CellRef(2, "**")] == S
        assert image[CellRef(1, "0*")] == CellRef(1, "eL")
        assert image[CellRef(1, "*0")] == CellRef(1, "eB")
        assert image[CellRef(0, "00")] == CellRef(0, "w00")
        assert image[CellRef(0, "11")] == CellRef(0, "w11")

    def test_circle_edge(self, circle):
        image = cube_morphism(circle, CellRef(1, "e")).assignment
        assert image[CellRef(0, "0")] == CellRef(0, "v")
        assert image[CellRef(0, "1")] == CellRef(0, "v")

    def test_vertex(self, interval):
        image = cube_morphism(interval, CellRef(0, "a0")).assignment
        assert image == {CellRef(0, ""): CellRef(0, "a0")}

    def test_unknown_cell(self, interval):
        with pytest.raises(UnknownCell):
            cube_morphism(interval, CellRef(1, "nope"))


def iterated_faces(P: Complex, n: int, cid: str):
    """Yield the ids of the iterated faces of a cell, one set per degree."""
    level = {cid}
    yield level
    for r in range(n, 0, -1):
        level = {fid for c in level for fid in P.faces_of(r, c).values()}
        yield level


class TestRegularity:
    @pytest.mark.parametrize(
        "query",
        [
            lambda P: P.face(CellRef(1, "nope"), 1, 0),
            lambda P: P.face(CellRef(1, "e"), 2, 0),
            lambda P: core.is_regular(P, CellRef(1, "nope")),
        ],
        ids=["face-of-unknown-cell", "face-at-no-position", "is_regular-of-unknown-cell"],
    )
    def test_unknown_cell_or_face(self, interval, query):
        with pytest.raises(UnknownCell):
            query(interval)

    def test_an_unhashable_id_is_an_unknown_cell(self, interval):
        with pytest.raises(UnknownCell):
            core.is_regular(interval, CellRef(1, ["x"]))

    def test_circle_edge_not_regular(self, circle):
        assert not core.is_regular(circle, CellRef(1, "e"))

    def test_square_regular(self, square):
        assert core.is_regular(square, S)

    def test_vertices_always_regular(self, interval):
        assert core.is_regular(interval, CellRef(0, "a0"))

    @pytest.mark.parametrize("cells, faces, levels", FALLING_SHORT, ids=FALLING_SHORT_IDS)
    def test_each_level_that_falls_short(self, cells, faces, levels):
        P = Complex(cells, faces)
        assert core.validate(P) == []
        x = P.cells(P.dimension)[0]
        assert [len(level) for level in iterated_faces(P, x.degree, x.id)] == levels
        assignment = cube_morphism(P, x).assignment
        assert len(set(assignment.values())) < len(assignment)
        assert not core.is_regular(P, x)

    @pytest.mark.parametrize(
        "cells, faces, regular",
        [(cells, faces, False) for cells, faces, _ in FALLING_SHORT] + [(*REGULAR_SQUARE, True)],
        ids=FALLING_SHORT_IDS + ["regular-square"],
    )
    def test_regular_in_every_key_order(self, cells, faces, regular):
        """is_regular reads faces by position, not in table order: every
        order of the top cell's keys, with every other table given
        forwards or reversed, agrees with the cube morphism."""
        top = max(faces)
        x = CellRef(*top)
        for order in itertools.permutations(faces[top]):
            for step in (1, -1):
                tables = {key: dict([*table.items()][::step]) for key, table in faces.items()}
                tables[top] = {ik: faces[top][ik] for ik in order}
                P = Complex(cells, tables)
                assignment = cube_morphism(P, x).assignment
                injective = len(set(assignment.values())) == len(assignment)
                assert core.is_regular(P, x) == injective == regular, order

    @pytest.mark.parametrize("glued", [False, True], ids=["cube", "first-coordinate-glued"])
    def test_regular_iff_cube_morphism_injective_in_degree_three(self, glued):
        """Above degree 2 only the level loop decides; gluing the ends of
        the first coordinate (a leading 0 or 1 becomes 0) makes *** and
        the cells that run along that coordinate irregular."""
        P = core.standard_cube(3)
        if glued:
            def glue(w):
                return "0" + w[1:] if w[0] in "01" else w

            P = Complex(
                {n: sorted({glue(c) for c in P.cell_ids(n)}) for n in P.degrees()},
                {(n, glue(c)): {key: glue(f) for key, f in P.faces_of(n, c).items()}
                 for n in P.degrees() if n > 0 for c in P.cell_ids(n)},
            )
        assert core.validate(P) == []
        for x in all_cells(P):
            assignment = cube_morphism(P, x).assignment
            injective = len(set(assignment.values())) == len(assignment)
            assert core.is_regular(P, x) == injective, x
        assert core.is_regular(P, CellRef(3, "***")) is not glued

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_faces_of_regular_cells_are_regular(self, seed):
        P = random_grid_complex(random.Random(seed))
        for n in P.degrees():
            if n == 0:
                continue
            for x in P.cells(n):
                if core.is_regular(P, x):
                    for i in range(1, n + 1):
                        for k in (0, 1):
                            assert core.is_regular(P, P.face(x, i, k))

    @settings(max_examples=60, deadline=None)
    @given(glued_complexes())
    def test_regular_iff_cube_morphism_injective(self, P):
        for x in all_cells(P):
            assignment = cube_morphism(P, x).assignment
            injective = len(set(assignment.values())) == len(assignment)
            assert core.is_regular(P, x) == injective, x

    @settings(max_examples=60, deadline=None)
    @given(glued_complexes(), st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_regular_iff_cube_morphism_injective_with_tables_out_of_order(self, P, seed):
        """The same on a relabelled copy, whose face tables hold their
        keys in shuffled order."""
        P = relabelled(P, random.Random(seed))
        for x in all_cells(P):
            assignment = cube_morphism(P, x).assignment
            injective = len(set(assignment.values())) == len(assignment)
            assert core.is_regular(P, x) == injective, x


class TestDuality:
    def test_opposite_interval(self, interval):
        op = core.opposite(interval)
        e = CellRef(1, "e")
        assert op.face(e, 1, 0) == CellRef(0, "a1")
        assert op.face(e, 1, 1) == CellRef(0, "a0")

    def test_opposite_circle_fixed(self, circle):
        assert core.opposite(circle) == circle

    def test_opposite_square(self, square):
        op = core.opposite(square)
        assert op.face(S, 1, 0) == CellRef(1, "eR")
        assert op.face(S, 2, 1) == CellRef(1, "eB")
        assert core.validate(op) == []

    def test_transpose_square(self, square):
        tr = core.transpose(square)
        assert tr.face(S, 1, 0) == square.face(S, 2, 0)
        assert tr.face(S, 2, 1) == square.face(S, 1, 1)
        assert core.validate(tr) == []

    def test_transpose_fixes_low_dimensions(self, interval, double_edge):
        assert core.transpose(interval) == interval
        assert core.transpose(double_edge) == double_edge

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_involutions_and_extremal(self, seed):
        P = random_grid_complex(random.Random(seed))
        op, tr = core.opposite(P), core.transpose(P)
        assert core.validate(op) == []
        assert core.validate(tr) == []
        assert core.opposite(op) == P
        assert core.transpose(tr) == P
        assert core.minimal_vertices(op) == core.maximal_vertices(P)
        assert core.maximal_vertices(op) == core.minimal_vertices(P)
        assert core.extremal(op) == core.extremal(P) == core.extremal(tr)


class TestExtremal:
    def test_interval(self, interval):
        assert core.minimal_vertices(interval) == {CellRef(0, "a0")}
        assert core.maximal_vertices(interval) == {CellRef(0, "a1")}

    def test_circle_has_no_extremal(self, circle):
        assert core.extremal(circle) == set()

    def test_double_edge(self, double_edge):
        assert core.minimal_vertices(double_edge) == {CellRef(0, "u")}
        assert core.maximal_vertices(double_edge) == {CellRef(0, "w")}


class TestSubcomplex:
    def test_vertex_restriction(self, interval):
        Q = restrict(interval, [CellRef(0, "a0")])
        assert is_subcomplex(interval, Q)

    def test_dangling_not_subcomplex(self, square):
        kept = [c for c in all_cells(square) if c != CellRef(0, "w00")]
        Q = restrict(square, kept)
        assert not is_subcomplex(square, Q)

    def test_boundary_of_square(self, square):
        kept = [c for c in all_cells(square) if c != S]
        Q = restrict(square, kept)
        assert core.validate(Q) == []
        assert is_subcomplex(square, Q)

    def test_reflexive(self, shared_memory):
        assert is_subcomplex(shared_memory, shared_memory)


class TestIsomorphism:
    def test_interval_vs_standard_cube(self, interval):
        mapping = core.are_isomorphic(interval, core.standard_cube(1))
        assert mapping == {
            CellRef(0, "a0"): CellRef(0, "0"),
            CellRef(0, "a1"): CellRef(0, "1"),
            CellRef(1, "e"): CellRef(1, "*"),
        }

    def test_cell_counts_differ(self, double_edge, circle):
        assert core.are_isomorphic(double_edge, circle) is None

    def test_parallel_edges_interchangeable(self, double_edge):
        relabeled = Complex(
            {0: ["u", "w"], 1: ["p", "q"]},
            {
                (1, "q"): {(1, 0): "u", (1, 1): "w"},
                (1, "p"): {(1, 0): "u", (1, 1): "w"},
            },
        )
        assert core.are_isomorphic(double_edge, relabeled) is not None

    def test_direction_matters(self, interval):
        assert core.are_isomorphic(interval, core.opposite(interval)) is not None
        # path of length 2 vs fork
        path2 = modelio.named_fixture("path2")
        fork = Complex(
            {0: ["v0", "v1", "v2"], 1: ["e1", "e2"]},
            {
                (1, "e1"): {(1, 0): "v1", (1, 1): "v0"},
                (1, "e2"): {(1, 0): "v1", (1, 1): "v2"},
            },
        )
        assert core.are_isomorphic(path2, fork) is None

    def test_grid_vs_itself(self, shared_memory):
        mapping = core.are_isomorphic(shared_memory, shared_memory)
        assert mapping is not None
        assert all(p == q for p, q in mapping.items())

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_degree_more_or_fewer(self, n):
        cube = core.standard_cube(n)
        skeleton = Complex(
            {r: cube.cell_ids(r) for r in range(n)},
            {(r, c): cube.faces_of(r, c) for r in range(1, n) for c in cube.cell_ids(r)},
        )
        assert core.are_isomorphic(cube, skeleton) is None
        assert core.are_isomorphic(skeleton, cube) is None

    def test_classes_of_q_stop_at_the_first_degree_that_differs(self, monkeypatch):
        # the same vertex classes, but the edges of Q bound two squares each
        P = core.standard_cube(2)
        Q = from_edges({"a": ("00", "01"), "b": ("10", "11"), "c": ("00", "10"), "d": ("01", "11")},
                       {"s": ("a", "b", "c", "d"), "t": ("a", "b", "c", "d")})
        classed = []
        stars = core._stars

        def counted(R, classes):
            for n, by_id in enumerate(stars(R, classes)):
                classed.append((R is Q, n))
                yield by_id

        monkeypatch.setattr(core, "_stars", counted)
        assert core.are_isomorphic(P, Q) is None
        assert [n for of_q, n in classed if of_q] == [0, 1]

    def test_an_invalid_q_raises_before_any_class_is_compared(self):
        dangling = Complex(
            {0: ["a", "b"], 1: ["x", "y"]},
            {(1, "x"): {(1, 0): "a", (1, 1): "b"}, (1, "y"): {(1, 0): "b", (1, 1): "ghost"}},
        )
        # four vertices against two: the vertex classes would already differ
        with pytest.raises(ValidationFailed) as excinfo:
            core.are_isomorphic(core.standard_cube(2), dangling)
        assert [v.kind for v in excinfo.value.report] == ["dangling-face"]


class TestStars:
    """The class pass, one loop per degree, gives what the first one-loop
    pass gives, up to the numbering of the classes."""

    @staticmethod
    def renumbered(per_degree):
        """The stars with each class renumbered by first appearance, degree
        by degree in sorted id order."""
        number: dict[int, int] = {}
        return [{c: (fids, alone, number.setdefault(cls, len(number)))
                 for c, (fids, alone, cls) in sorted(by_id.items())} for by_id in per_degree]

    def assert_same(self, P):
        assert self.renumbered(core._stars(P, {})) == self.renumbered(reference_stars(P, {}))

    @settings(max_examples=60, deadline=None)
    @given(glued_complexes())
    def test_glued_complexes(self, P):
        self.assert_same(P)

    def test_two_squares_at_one_position(self):
        # s and t both have a at d1_0; t alone has e at d1_1
        P = from_edges(
            {"a": ("p", "q"), "b": ("r", "w"), "c": ("p", "r"), "d": ("q", "w"), "e": ("r", "w")},
            {"s": ("a", "b", "c", "d"), "t": ("a", "e", "c", "d")},
        )
        self.assert_same(P)
        edges = list(core._stars(P, {}))[1]
        assert edges["a"][1] == () and edges["e"][1] == ("t",) and edges["c"][1] == ()

    def test_square_on_one_loop(self):
        P = Complex(
            {0: ["v"], 1: ["e"], 2: ["s"]},
            {(1, "e"): {(1, 0): "v", (1, 1): "v"}, (2, "s"): {(i, k): "e" for i in (1, 2) for k in (0, 1)}},
        )
        self.assert_same(P)

    def test_clashing_and_cubes(self):
        for P in (CLASHING, core.standard_cube(3), core.standard_cube(0), Complex({})):
            self.assert_same(P)


class TestCofaceTables:
    @settings(max_examples=60, deadline=None)
    @given(glued_complexes())
    def test_match_the_definition(self, P):
        # each coface once, sorted, even where a square has an edge twice
        for v in P.cells(0):
            for k in (0, 1):
                assert P.edges_at(v, k) == sorted({e for e in P.cells(1) if P.face(e, 1, k) == v})
        for e in P.cells(1):
            assert squares_on(P, e) == sorted(
                {s for s in P.cells(2) for i in (1, 2) for k in (0, 1) if P.face(s, i, k) == e}
            )

    def test_square_on_one_loop(self):
        P = Complex(
            {0: ["v"], 1: ["e"], 2: ["s"]},
            {(1, "e"): {(1, 0): "v", (1, 1): "v"}, (2, "s"): {(i, k): "e" for i in (1, 2) for k in (0, 1)}},
        )
        assert squares_on(P, CellRef(1, "e")) == [CellRef(2, "s")]
        assert P.edges_at(CellRef(0, "v")) == [CellRef(1, "e")]


def backtracking_isomorphism(P: Complex, Q: Complex) -> Optional[dict[CellRef, CellRef]]:
    """The recursive backtracking search that core.are_isomorphic used
    before it forced cofaces, kept as the reference for which pairs are
    isomorphic. Exponential in the worst case: small inputs only."""
    for n in set(P.degrees()) | set(Q.degrees()):
        if P.size(n) != Q.size(n):
            return None

    order = sorted(all_cells(P), key=lambda c: (-c.degree, c.id))
    mapping: dict[CellRef, CellRef] = {}
    used: set[CellRef] = set()

    def assign(p: CellRef, q: CellRef, trail: list[CellRef]) -> bool:
        current = mapping.get(p)
        if current is not None:
            return current == q
        if q in used or p.degree != q.degree:
            return False
        mapping[p] = q
        used.add(q)
        trail.append(p)
        for i in range(1, p.degree + 1):
            for k in (0, 1):
                if not assign(P.face(p, i, k), Q.face(q, i, k), trail):
                    return False
        return True

    def undo(trail: list[CellRef]):
        for p in trail:
            used.discard(mapping.pop(p))

    def search(pos: int) -> bool:
        while pos < len(order) and order[pos] in mapping:
            pos += 1
        if pos == len(order):
            return True
        p = order[pos]
        for q in Q.cells(p.degree):
            trail: list[CellRef] = []
            if assign(p, q, trail) and search(pos + 1):
                return True
            undo(trail)
        return False

    return dict(mapping) if search(0) else None


def commutes(mapping: dict[CellRef, CellRef], P: Complex, Q: Complex) -> bool:
    """mapping is a degree-preserving bijection from the cells of P onto
    those of Q that commutes with every face map."""
    if sorted(mapping) != all_cells(P) or sorted(mapping.values()) != all_cells(Q):
        return False
    return all(
        p.degree == q.degree
        and all(
            mapping[P.face(p, i, k)] == Q.face(q, i, k)
            for i in range(1, p.degree + 1)
            for k in (0, 1)
        )
        for p, q in mapping.items()
    )


def rewired(P: Complex, rng: random.Random) -> Optional[Complex]:
    """P with one face entry moved so that P stays valid: an end of an
    edge that bounds no square moved to another vertex, or a side of a
    square moved to a parallel edge. None if P has no such entry."""
    moves = []
    for e in P.cells(1):
        if not squares_on(P, e):
            moves += [(e, (1, k), v.id) for k in (0, 1) for v in P.cells(0) if v != P.face(e, 1, k)]
    ends = {e: (P.face(e, 1, 0), P.face(e, 1, 1)) for e in P.cells(1)}
    for s in P.cells(2):
        for (i, k), side in P.face_table(s).items():
            moves += [
                (s, (i, k), e.id) for e in ends if e.id != side and ends[e] == ends[CellRef(1, side)]
            ]
    if not moves:
        return None
    cell, (i, k), target = rng.choice(moves)
    Q = rewire(P, cell, i, k, target)
    assert core.is_valid(Q)
    return Q


class TestIsomorphismSearch:
    """are_isomorphic propagates forced cells through faces and unique
    cofaces and branches only when nothing is forced, with no recursion."""

    @pytest.mark.parametrize(
        "side, holes, q_holes",
        [
            # a RecursionError under the recursive search
            (32, {(0, 5), (1, 1), (17, 9), (30, 30)}, {(0, 5), (1, 1), (17, 9), (30, 30)}),
            # holes in row 0 made the face-only backtracking exponential (5-43 s)
            (6, {(0, 2), (0, 4)}, {(0, 2), (0, 4)}),
            (6, {(0, 1), (0, 3), (0, 5)}, {(0, 1), (0, 3), (0, 5)}),
            (7, {(0, 2), (4, 4)}, {(0, 5), (4, 4)}),
        ],
    )
    def test_relabelled_grid(self, side, holes, q_holes):
        P = modelio.grid_with_holes(side, side, holes)
        Q = relabelled(modelio.grid_with_holes(side, side, q_holes), random.Random(side))
        mapping = core.are_isomorphic(P, Q)
        if holes == q_holes:
            assert mapping is not None and commutes(mapping, P, Q)
        else:
            assert mapping is None

    @pytest.mark.parametrize(
        "side, holes, q_holes",
        [
            (9, {(1, 1), (7, 7)}, {(1, 1), (7, 7)}),
            (9, {(2, 3), (5, 5)}, {(2, 3), (6, 5)}),
            (6, {(0, 2), (0, 4)}, {(0, 2), (0, 4)}),
            (6, {(0, 1), (0, 3), (0, 5)}, {(0, 1), (0, 3), (0, 5)}),
            (7, {(0, 2), (4, 4)}, {(0, 5), (4, 4)}),
        ],
    )
    def test_each_branch_tries_one_candidate(self, monkeypatch, side, holes, q_holes):
        """The search branches on an unmapped cell of the smallest class,
        here a class of one, so no candidate is tried and undone."""
        tried = []
        force = core._force
        monkeypatch.setattr(core, "_force", lambda *a: tried.append(force(*a)) or tried[-1])
        P = modelio.grid_with_holes(side, side, holes)
        Q = relabelled(modelio.grid_with_holes(side, side, q_holes), random.Random(side))
        mapping = core.are_isomorphic(P, Q)
        if holes == q_holes:
            assert mapping is not None and tried and all(tried)
        else:
            assert mapping is None and len(tried) <= 1

    def test_one_face_report_per_parsed_complex(self, monkeypatch):
        grid = modelio.grid_with_holes(6, 6, {(1, 1), (4, 4)})
        texts = [modelio.serialize(g) for g in (grid, relabelled(grid, random.Random(6)))]
        reports = []
        face_report = core.validate
        monkeypatch.setattr(core, "validate", lambda *a: reports.append(a[0]) or face_report(*a))
        P, Q = (modelio.parse(text) for text in texts)
        assert core.are_isomorphic(P, Q) is not None
        assert reports == [P, Q]  # parse checks; the coface tables reuse that

    def test_proper_part_is_not_isomorphic(self, interval):
        # every cell of interval maps to a cell of the same signature here
        bigger = Complex(
            {0: ["a0", "a1", "z"], 1: ["e"]}, {(1, "e"): {(1, 0): "a0", (1, 1): "a1"}}
        )
        assert core.are_isomorphic(interval, bigger) is None
        assert core.are_isomorphic(bigger, interval) is None

    def test_dangling_face_raises(self, interval):
        dangling = Complex(
            {0: ["a", "b"], 1: ["x", "y"]},
            {(1, "x"): {(1, 0): "a", (1, 1): "b"}, (1, "y"): {(1, 0): "b", (1, 1): "ghost"}},
        )
        for P, Q in [(dangling, dangling), (dangling, interval), (interval, dangling)]:
            with pytest.raises(PrecubicalError) as excinfo:
                core.are_isomorphic(P, Q)
            assert isinstance(excinfo.value, ValidationFailed)
            assert [v.kind for v in excinfo.value.report] == ["dangling-face"]

    @settings(max_examples=80, deadline=None)
    @given(
        glued_complexes(),
        st.sampled_from(["shuffled", "rewired", "opposite", "transpose"]),
        st.integers(0, 2**32),
    )
    @example(CLASHING, "shuffled", 0)  # a forced cell meets an image it already has
    def test_agrees_with_backtracking(self, G, how, seed):
        rng = random.Random(seed)
        H = {
            "shuffled": lambda: G,
            "rewired": lambda: rewired(G, rng) or G,
            "opposite": lambda: core.opposite(G),
            "transpose": lambda: core.transpose(G),
        }[how]()
        H = relabelled(H, rng)
        mapping = core.are_isomorphic(G, H)
        assert (mapping is None) == (backtracking_isomorphism(G, H) is None)
        if mapping is not None:
            assert commutes(mapping, G, H)
        if how == "shuffled":
            assert mapping is not None


class TestEuler:
    def test_standard_square(self):
        assert core.euler_characteristic(core.standard_cube(2)) == 1

    def test_circle(self, circle):
        assert core.euler_characteristic(circle) == 0

    def test_shared_memory(self, shared_memory):
        assert (
            shared_memory.size(0),
            shared_memory.size(1),
            shared_memory.size(2),
        ) == (16, 24, 8)
        assert core.euler_characteristic(shared_memory) == 0
