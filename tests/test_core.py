import random
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from precubical import core, modelio
from precubical.core import CellRef, Complex
from precubical.errors import OutOfRange, PrecubicalError, UnknownCell, ValidationFailed

from conftest import glued_complexes, random_grid_complex, relabelled
from reference import all_cells, cube_morphism, is_subcomplex, restrict, squares_on


S = CellRef(2, "s")


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
        assert P.cell_ids(0) == ("",)
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
    def test_circle_edge_not_regular(self, circle):
        assert not core.is_regular(circle, CellRef(1, "e"))

    def test_square_regular(self, square):
        assert core.is_regular(square, S)

    def test_vertices_always_regular(self, interval):
        assert core.is_regular(interval, CellRef(0, "a0"))

    @pytest.mark.parametrize(
        "cells, faces, levels",
        [
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
        ],
        ids=["loop-edge", "repeated-edge", "repeated-corner"],
    )
    def test_each_level_that_falls_short(self, cells, faces, levels):
        P = Complex(cells, faces)
        assert core.validate(P) == []
        x = P.cells(P.dimension)[0]
        assert [len(level) for level in iterated_faces(P, x.degree, x.id)] == levels
        assignment = cube_morphism(P, x).assignment
        assert len(set(assignment.values())) < len(assignment)
        assert not core.is_regular(P, x)

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

    def test_one_face_report_per_parsed_complex(self, monkeypatch):
        grid = modelio.grid_with_holes(6, 6, {(1, 1), (4, 4)})
        texts = [modelio.serialize(g) for g in (grid, relabelled(grid, random.Random(6)))]
        reports = []
        face_report = core._face_report
        monkeypatch.setattr(core, "_face_report", lambda *a: reports.append(a[0]) or face_report(*a))
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
