import random

import pytest
from hypothesis import given, settings, strategies as st

from precubical import core, fbg, modelio, recipes, reductions
from precubical.core import CellRef, Complex
from precubical.errors import (
    ConditionsFailed,
    DimensionUnsupported,
    DocumentSyntaxError,
    GuaranteeLost,
    OutOfRange,
    RecipeStepFailed,
    UnknownCell,
    ValidationFailed,
    WrongDegree,
)
from precubical.reductions import (
    EDGE_COLLAPSE,
    SQUARE_ONE_FREE,
    SQUARE_TWO_FREE,
    Step,
    auto_reduce,
    check,
    edge_collapse,
    run,
    square_one_free,
    square_two_free,
)

from conftest import PERTURBATIONS, glued_complexes, perturb, random_grid_complex
from reference import all_cells, is_subcomplex, restrict


def all_candidates(P):
    for s in P.cells(2):
        for b in (0, 1):
            yield SQUARE_ONE_FREE, s.id, None, b
        for a in (1, 2):
            for b in (0, 1):
                yield SQUARE_TWO_FREE, s.id, a, b
    for e in P.cells(1):
        for b in (0, 1):
            yield EDGE_COLLAPSE, e.id, None, b


class TestEdgeCollapse:
    def test_path2_forward(self):
        P = modelio.named_fixture("path2")
        Q, cert = edge_collapse(P, "e1", 0)
        assert cert.all_conditions_hold
        assert cert.y == {CellRef(1, "e2")}
        assert cert.removed == {CellRef(1, "e1"), CellRef(0, "v1")}
        assert Q.face(CellRef(1, "e2"), 1, 0) == CellRef(0, "v0")
        assert core.validate(Q) == []
        assert core.are_isomorphic(Q, modelio.named_fixture("interval"))
        assert core.minimal_vertices(Q) == {CellRef(0, "v0")}
        assert core.maximal_vertices(Q) == {CellRef(0, "v2")}

    def test_path2_backward_equals_dual(self):
        P = modelio.named_fixture("path2")
        Q, cert = edge_collapse(P, "e2", 1)
        assert cert.y == {CellRef(1, "e1")}
        assert cert.removed == {CellRef(1, "e2"), CellRef(0, "v1")}
        assert Q.face(CellRef(1, "e1"), 1, 1) == CellRef(0, "v2")
        assert core.are_isomorphic(Q, modelio.named_fixture("interval"))
        dualQ, _ = edge_collapse(core.opposite(P), "e2", 0)
        assert Q == core.opposite(dualQ)

    def test_double_edge_collapse_refused(self):
        # collapsing either parallel edge would produce a directed circle
        P = modelio.named_fixture("double_edge")
        with pytest.raises(ConditionsFailed) as excinfo:
            edge_collapse(P, "p", 0)
        cert = excinfo.value.certificate
        condition = cert.condition("i")
        assert not condition.holds
        assert condition.witnesses == (CellRef(1, "q"),)

    def test_empty_y_refused_by_default(self):
        P = modelio.named_fixture("interval")
        with pytest.raises(GuaranteeLost):
            edge_collapse(P, "e", 0)
        Q, cert = edge_collapse(P, "e", 0, allow_empty_y=True)
        assert not cert.fbg_guaranteed
        assert Q.size(0) == 1 and Q.size(1) == 0

    def test_square_boundary_edge_blocked(self):
        P = modelio.named_fixture("square_plus_tail")
        with pytest.raises(ConditionsFailed) as excinfo:
            edge_collapse(P, "g", 0)
        cert = excinfo.value.certificate
        assert not cert.condition("ii").holds

    def test_check_mode_never_raises(self):
        P = modelio.named_fixture("double_edge")
        Q, cert = edge_collapse(P, "p", 0, mode="check")
        assert Q is None
        assert not cert.all_conditions_hold

    def test_unknown_and_wrong_degree(self):
        P = modelio.named_fixture("square")
        with pytest.raises(UnknownCell):
            edge_collapse(P, "nope", 0)
        with pytest.raises(WrongDegree):
            edge_collapse(P, "s", 0)

    def test_dimension_guard(self):
        with pytest.raises(DimensionUnsupported):
            edge_collapse(core.standard_cube(3), "0**", 0)


@pytest.mark.parametrize(
    "kind, a, b, mode",
    [
        (EDGE_COLLAPSE, None, 2, "check"),
        (EDGE_COLLAPSE, None, -1, "apply"),
        (SQUARE_ONE_FREE, None, 2, "check"),
        (SQUARE_TWO_FREE, 3, 0, "check"),
        (SQUARE_TWO_FREE, 0, 1, "apply"),
        (SQUARE_TWO_FREE, None, 0, "check"),
        ("square-zero-free", None, 0, "check"),
        (EDGE_COLLAPSE, None, 0, "chek"),
        (SQUARE_ONE_FREE, None, 1, "Apply"),
        (EDGE_COLLAPSE, 2, 0, "apply"),
        (SQUARE_ONE_FREE, 1, 1, "check"),
    ],
)
def test_bad_parameters_raise_out_of_range(kind, a, b, mode):
    P = modelio.named_fixture("square_plus_tail")
    cell = "g" if kind == EDGE_COLLAPSE else "s"
    with pytest.raises(OutOfRange):
        run(P, kind, cell, a, b, mode=mode)
    assert P._cofaces is None  # refused before any table was read


class TestBrokenFaceTables:
    """No reduction certifies on a complex whose face entries do not
    resolve: building the coface tables reports them."""

    def test_dangling_face(self):
        P = Complex(
            {0: ["a", "b"], 1: ["x", "y"]},
            {(1, "x"): {(1, 0): "a", (1, 1): "b"}, (1, "y"): {(1, 0): "b", (1, 1): "ghost"}},
        )
        with pytest.raises(ValidationFailed) as excinfo:
            edge_collapse(P, "y", 0, mode="check")
        [violation] = excinfo.value.report
        assert violation.kind == "dangling-face"
        assert violation.cell == CellRef(1, "y")
        assert violation.indices == (1, 1)
        with pytest.raises(ValidationFailed):
            auto_reduce(P)

    def test_missing_face(self):
        P = modelio.named_fixture("square")
        faces = {
            (n, c.id): P.face_table(c) for n in (1, 2) for c in P.cells(n)
        }
        del faces[(2, "s")][(2, 1)]
        broken = Complex({n: P.cell_ids(n) for n in P.degrees()}, faces)
        with pytest.raises(ValidationFailed) as excinfo:
            square_one_free(broken, "s", 0, mode="check")
        assert [v.kind for v in excinfo.value.report] == ["missing-face"]

    def test_unlisted_cell(self):
        P = Complex({0: ["a"]}, {(1, "e"): {(1, 0): "a", (1, 1): "a"}})
        with pytest.raises(ValidationFailed) as excinfo:
            check(P, EDGE_COLLAPSE, "e", None, 0)
        assert [v.kind for v in excinfo.value.report] == ["unlisted-cell"]
        Q = modelio.named_fixture("square_plus_tail")
        faces = {(n, c.id): Q.face_table(c) for n in (1, 2) for c in Q.cells(n)}
        # the tail "g" keeps its face table but leaves the cell lists
        cells = {n: [c for c in Q.cell_ids(n) if c != "g"] for n in Q.degrees()}
        with pytest.raises(ValidationFailed) as excinfo:
            auto_reduce(Complex(cells, faces))
        assert [v.kind for v in excinfo.value.report] == ["unlisted-cell"]

    @pytest.mark.parametrize("policy", ["greedy", "recipe"])
    def test_unlisted_cell_with_nothing_to_check(self, policy):
        # no listed edge or square, so no step ever checks a cell
        P = Complex({0: ["a"]}, {(1, "e"): {(1, 0): "a", (1, 1): "a"}})
        with pytest.raises(ValidationFailed) as excinfo:
            auto_reduce(P, policy, [] if policy == "recipe" else None)
        assert [v.kind for v in excinfo.value.report] == ["unlisted-cell"]

    @pytest.mark.parametrize("defect", ["swapped-sides", "rewired-eB"])
    def test_broken_identity(self, defect):
        # every face entry resolves, but the sides of s no longer meet
        P = modelio.named_fixture("square")
        faces = {(n, c.id): P.face_table(c) for n in (1, 2) for c in P.cells(n)}
        if defect == "swapped-sides":
            table = faces[(2, "s")]
            table[(1, 0)], table[(1, 1)] = table[(1, 1)], table[(1, 0)]
        else:
            faces[(1, "eB")][(1, 1)] = "w00"
        broken = Complex({n: P.cell_ids(n) for n in P.degrees()}, faces)
        candidates = list(all_candidates(broken))
        kinds = {kind for kind, *_ in candidates}
        assert kinds == {EDGE_COLLAPSE, SQUARE_ONE_FREE, SQUARE_TWO_FREE}
        for kind, cell, a, b in candidates:
            with pytest.raises(ValidationFailed) as excinfo:
                check(broken, kind, cell, a, b)
            assert {v.kind for v in excinfo.value.report} == {"identity"}
        with pytest.raises(ValidationFailed) as excinfo:
            auto_reduce(broken)
        assert {v.kind for v in excinfo.value.report} == {"identity"}

    @settings(max_examples=80, deadline=None)
    @given(glued_complexes(), st.sampled_from(PERTURBATIONS), st.randoms(use_true_random=False))
    def test_build_cofaces_raises_the_face_report(self, P, how, rng):
        # the coface tables refuse exactly what validate reports, bar duplicate ids
        Q = perturb(P, rng, how)
        if Q is None:
            return
        expected = [v for v in core.validate(Q) if v.kind != "duplicate-id"]
        if expected:
            with pytest.raises(ValidationFailed) as excinfo:
                Q.coface_tables()
            assert excinfo.value.report == expected
        else:
            Q.coface_tables()


class TestBrokenFaceTablesInFbg:
    """The FBG layer reads the same coface tables, so a dangling face is
    reported as a typed ValidationFailed there too."""

    @pytest.fixture
    def dangling(self):
        return Complex(
            {0: ["a", "b"], 1: ["x", "y"]},
            {(1, "x"): {(1, 0): "a", (1, 1): "b"}, (1, "y"): {(1, 0): "b", (1, 1): "ghost"}},
        )

    @pytest.mark.parametrize(
        "query",
        [
            fbg.one_skeleton_is_acyclic,
            fbg.fundamental_bipartite_graph,
            core.minimal_vertices,
            core.maximal_vertices,
        ],
    )
    def test_dangling_face(self, dangling, query):
        with pytest.raises(ValidationFailed) as excinfo:
            query(dangling)
        [violation] = excinfo.value.report
        assert violation.kind == "dangling-face"
        assert violation.cell == CellRef(1, "y")

    def test_broken_identity(self):
        P = modelio.named_fixture("square")
        faces = {(n, c.id): P.face_table(c) for n in (1, 2) for c in P.cells(n)}
        table = faces[(2, "s")]
        table[(1, 0)], table[(1, 1)] = table[(1, 1)], table[(1, 0)]
        broken = Complex({n: P.cell_ids(n) for n in P.degrees()}, faces)
        with pytest.raises(ValidationFailed) as excinfo:
            fbg.fundamental_bipartite_graph(broken)
        assert {v.kind for v in excinfo.value.report} == {"identity"}


class TestSquareOneFree:
    def test_square_b0(self):
        P = modelio.named_fixture("square")
        Q, cert = square_one_free(P, "s", 0)
        assert cert.removed == {
            CellRef(2, "s"),
            CellRef(1, "eR"),
            CellRef(1, "eB"),
            CellRef(0, "w10"),
        }
        assert cert.fbg_guaranteed
        assert cert.y is None
        assert core.validate(Q) == []
        assert is_subcomplex(P, Q)
        # remaining: w00 -> w01 -> w11
        assert [e.id for e in Q.cells(1)] == ["eL", "eT"]

    def test_square_b1(self):
        P = modelio.named_fixture("square")
        Q, cert = square_one_free(P, "s", 1)
        assert cert.removed == {
            CellRef(2, "s"),
            CellRef(1, "eL"),
            CellRef(1, "eT"),
            CellRef(0, "w01"),
        }
        assert [e.id for e in Q.cells(1)] == ["eB", "eR"]

    def test_tail_blocks_b0(self):
        P = modelio.named_fixture("square_plus_tail")
        with pytest.raises(ConditionsFailed) as excinfo:
            square_one_free(P, "s", 0)
        cert = excinfo.value.certificate
        condition = cert.condition("ii")
        assert not condition.holds
        assert condition.witnesses == (CellRef(1, "g"),)

    def test_extremal_preserved(self):
        P = modelio.named_fixture("square")
        Q, _ = square_one_free(P, "s", 0)
        assert core.extremal(Q) == core.extremal(P)


class TestSquareTwoFree:
    def test_square_plus_tail(self):
        P = modelio.named_fixture("square_plus_tail")
        Q, cert = square_two_free(P, "s", 1, 0)
        assert cert.removed == {CellRef(2, "s"), CellRef(1, "eB")}
        assert cert.y == {CellRef(1, "g")}
        assert cert.fbg_guaranteed
        excluded = {CellRef(0, "w10"), CellRef(1, "eR"), CellRef(1, "g")}
        assert cert.r_cells == frozenset(
            c for c in all_cells(Q) if c not in excluded
        )
        assert (Q.size(0), Q.size(1), Q.size(2)) == (5, 4, 0)
        assert core.validate(Q) == []
        assert is_subcomplex(P, Q)
        R = restrict(Q, cert.r_cells)
        assert core.validate(R) == []
        assert is_subcomplex(Q, R)
        assert core.extremal(P) == core.extremal(Q) <= cert.r_cells

    def test_square_alone_loses_guarantee(self):
        P = modelio.named_fixture("square")
        cert = check(P, SQUARE_TWO_FREE, "s", 1, 0)
        assert cert.all_conditions_hold
        assert cert.y == frozenset()
        with pytest.raises(GuaranteeLost):
            square_two_free(P, "s", 1, 0)
        Q, _ = square_two_free(P, "s", 1, 0, allow_empty_y=True)
        assert (Q.size(0), Q.size(1), Q.size(2)) == (4, 3, 0)

    def test_adjacent_square_blocks(self):
        P = modelio.grid_with_holes(2, 1)
        with pytest.raises(ConditionsFailed) as excinfo:
            square_two_free(P, "s(0,0)", 1, 0)
        cert = excinfo.value.certificate
        condition = cert.condition("i")
        assert not condition.holds
        assert CellRef(2, "s(1,0)") in condition.witnesses


class TestInvariantsOnRandomInstances:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_applied_reductions_conserve_structure(self, seed):
        P = random_grid_complex(random.Random(seed), max_side=3)
        chi = core.euler_characteristic(P)
        for kind, cell, a, b in all_candidates(P):
            cert = check(P, kind, cell, a, b)
            if not cert.all_conditions_hold:
                continue
            Q, cert2 = run(P, kind, cell, a, b, allow_empty_y=True)
            assert cert2 == cert  # replayable
            assert core.validate(Q) == []
            assert core.euler_characteristic(Q) == chi
            if kind == EDGE_COLLAPSE:
                x = CellRef(1, cell)
                v = P.face(x, 1, 1 - b)
                common = restrict(
                    P,
                    [
                        c
                        for c in all_cells(P)
                        if c not in cert.y and c not in (x, v)
                    ],
                )
                assert is_subcomplex(P, common)
                assert is_subcomplex(Q, common)
            else:
                assert is_subcomplex(P, Q)
            if cert.fbg_guaranteed:
                assert core.extremal(Q) == core.extremal(P)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_duality_commutation(self, seed):
        P = random_grid_complex(random.Random(seed), max_side=3)
        op, tr = core.opposite(P), core.transpose(P)
        for e in P.cells(1):
            c1 = check(P, EDGE_COLLAPSE, e.id, None, 1)
            c2 = check(op, EDGE_COLLAPSE, e.id, None, 0)
            assert c1.all_conditions_hold == c2.all_conditions_hold
            if c1.all_conditions_hold:
                Q1, _ = edge_collapse(P, e.id, 1, allow_empty_y=True)
                Q2, _ = edge_collapse(op, e.id, 0, allow_empty_y=True)
                assert Q1 == core.opposite(Q2)
        for s in P.cells(2):
            for b in (0, 1):
                c1 = check(P, SQUARE_TWO_FREE, s.id, 2, b)
                c2 = check(tr, SQUARE_TWO_FREE, s.id, 1, b)
                assert c1.all_conditions_hold == c2.all_conditions_hold
                if c1.all_conditions_hold:
                    Q1, _ = square_two_free(P, s.id, 2, b, allow_empty_y=True)
                    Q2, _ = square_two_free(tr, s.id, 1, b, allow_empty_y=True)
                    assert Q1 == core.transpose(Q2)
            c1 = check(P, SQUARE_TWO_FREE, s.id, 1, 1)
            c2 = check(op, SQUARE_TWO_FREE, s.id, 1, 0)
            assert c1.all_conditions_hold == c2.all_conditions_hold
            if c1.all_conditions_hold:
                Q1, _ = square_two_free(P, s.id, 1, 1, allow_empty_y=True)
                Q2, _ = square_two_free(op, s.id, 1, 0, allow_empty_y=True)
                assert Q1 == core.opposite(Q2)


class TestAutoReduce:
    def test_shared_memory_reaches_double_edge(self, shared_memory):
        Q, trail = auto_reduce(shared_memory)
        assert core.are_isomorphic(Q, modelio.named_fixture("double_edge"))
        assert all(c.fbg_guaranteed for c in trail)

    def test_square_greedy(self, square):
        Q, trail = auto_reduce(square)
        assert [c.kind for c in trail] == [SQUARE_ONE_FREE, EDGE_COLLAPSE]
        assert core.are_isomorphic(Q, modelio.named_fixture("interval"))

    def test_interval_is_a_fixpoint(self, interval):
        Q, trail = auto_reduce(interval)
        assert trail == []
        assert Q == interval

    def test_recipe_mode(self):
        P = modelio.named_fixture("square")
        steps = [Step(SQUARE_ONE_FREE, "s", 1), Step(EDGE_COLLAPSE, "eB", 0)]
        Q, trail = auto_reduce(P, policy="recipe", recipe=steps)
        assert len(trail) == 2
        assert core.are_isomorphic(Q, modelio.named_fixture("interval"))

    def test_recipe_failure_carries_certificate(self):
        P = modelio.named_fixture("double_edge")
        steps = [Step(EDGE_COLLAPSE, "p", 0)]
        with pytest.raises(RecipeStepFailed) as excinfo:
            auto_reduce(P, policy="recipe", recipe=steps)
        assert excinfo.value.step_index == 0
        assert not excinfo.value.certificate.condition("i").holds

    def test_recipe_step_with_a_bad_parameter_names_its_index(self):
        P = modelio.named_fixture("square")
        steps = [Step(SQUARE_ONE_FREE, "s", 1), Step(EDGE_COLLAPSE, "eB", 2)]
        with pytest.raises(RecipeStepFailed) as excinfo:
            auto_reduce(P, policy="recipe", recipe=steps)
        assert excinfo.value.step_index == 1
        assert excinfo.value.certificate is None

    def test_recipe_step_with_an_a_its_move_does_not_take(self):
        """Such a step has no recipe line: format_recipe would write one
        that parse_recipe refuses."""
        P = modelio.named_fixture("square")
        bad = Step(EDGE_COLLAPSE, "eB", 0, 2)
        with pytest.raises(DocumentSyntaxError, match="takes only b"):
            recipes.parse_recipe(recipes.format_recipe([bad]))
        with pytest.raises(RecipeStepFailed) as excinfo:
            auto_reduce(P, policy="recipe", recipe=[Step(SQUARE_ONE_FREE, "s", 1), bad])
        assert (excinfo.value.step_index, excinfo.value.step) == (1, bad)
        assert excinfo.value.certificate is None

    @pytest.mark.parametrize("policy", ["grdy", "recipe"])
    def test_bad_policy_or_missing_recipe_raise_out_of_range(self, square, policy):
        with pytest.raises(OutOfRange):
            auto_reduce(square, policy)

    def test_recipe_stall_names_the_squares_left(self):
        kept_only_middle = {(i, j) for i in range(3) for j in range(3)} - {(1, 1)}
        with pytest.raises(OutOfRange, match=r"\[\(1, 1\)\]"):
            recipes.grid_reduction_recipe(3, 3, kept_only_middle)

    def test_greedy_preserves_fbg(self, shared_memory):
        before = fbg.fundamental_bipartite_graph(shared_memory)
        Q, _ = auto_reduce(shared_memory)
        after = fbg.fundamental_bipartite_graph(Q)
        assert fbg.fbg_equal(before, after)
