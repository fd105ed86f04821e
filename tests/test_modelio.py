import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from precubical import core, fbg, modelio, recipes
from precubical.core import CellRef, Complex
from precubical.errors import (
    DocumentSyntaxError,
    OutOfRange,
    PrecubicalError,
    UnknownFixture,
    ValidationFailed,
)

from conftest import glued_complexes, random_grid_complex


class TestSerialization:
    def test_standard_cube_document(self):
        text = modelio.serialize(core.standard_cube(1))
        assert text.splitlines() == [
            "pcsv1",
            "0 0",
            "0 1",
            "1 * d1_0=0 d1_1=1",
        ]

    def test_round_trip_shared_memory(self, shared_memory):
        assert modelio.parse(modelio.serialize(shared_memory)) == shared_memory

    def test_round_trip_is_byte_identical(self, shared_memory):
        text = modelio.serialize(shared_memory)
        assert modelio.serialize(modelio.parse(text)) == text

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_round_trip_random(self, seed):
        P = random_grid_complex(random.Random(seed))
        assert modelio.parse(modelio.serialize(P)) == P

    def test_missing_face_key(self):
        text = "pcsv1\n0 a\n0 b\n0 c\n0 d\n2 sq d1_0=x d1_1=x d2_0=x\n"
        with pytest.raises(DocumentSyntaxError) as excinfo:
            modelio.parse(text)
        assert "sq" in str(excinfo.value)
        assert "d2_1" in str(excinfo.value)

    def test_missing_header(self):
        with pytest.raises(DocumentSyntaxError):
            modelio.parse("0 a\n")

    def test_invalid_complex_reported(self):
        text = "pcsv1\n0 a\n1 e d1_0=a d1_1=zz\n"
        with pytest.raises(ValidationFailed) as excinfo:
            modelio.parse(text)
        assert [v.kind for v in excinfo.value.report] == ["dangling-face"]

    def test_comments_and_blanks_ignored(self):
        text = "# leading comment\npcsv1\n\n0 a\n# note\n0 b\n1 e d1_0=a d1_1=b\n"
        P = modelio.parse(text)
        assert P.size(0) == 2

    def test_positions_round_trip(self):
        P = modelio.grid_with_holes(1, 1)
        Q = modelio.parse(modelio.serialize(P))
        assert Q.coords(CellRef(0, "(0,0)")) == (0, 0)
        assert Q.coords(CellRef(0, "(1,1)")) == (1, 1)


_INTERVAL_FACES = {(1, 0): "a", (1, 1): "b"}


class TestValidateCoversTheFormat:
    """A complex that validates is one that pcsv1 carries: each of these
    complexes holds a face entry, or a degree, that a document cannot
    state, so validate and the coface tables must refuse it. The empty
    vertex id of `standard_cube(0)` and ids holding whitespace validate,
    but no record can carry them, so serialize refuses them instead."""

    @pytest.mark.parametrize(
        "P, kind",
        [
            (Complex({0: ["a", "b"], 1: ["e"]}, {(1, "e"): {**_INTERVAL_FACES, (2, 0): "a"}}),
             "extra-face"),
            (Complex({0: ["a", "b"], 1: ["e"]}, {(1, "e"): {**_INTERVAL_FACES, (0, 1): "a"}}),
             "extra-face"),
            (Complex({0: ["a", "b"], 1: ["e"]}, {(1, "e"): {**_INTERVAL_FACES, (1, 2): "a"}}),
             "extra-face"),
            (Complex({0: ["a", "b"], 1: ["e"]},
                     {(1, "e"): _INTERVAL_FACES, (0, "a"): {(1, 0): "b"}}),
             "extra-face"),
            (Complex({-1: ["z"], 0: ["a"]}), "negative-degree"),
        ],
        ids=["entry-d2_0-on-edge", "entry-d0_1-on-edge", "entry-k-2-on-edge",
             "entry-on-vertex", "negative-degree"],
    )
    def test_what_the_format_cannot_carry_is_reported(self, P, kind):
        assert [v.kind for v in core.validate(P)] == [kind]
        with pytest.raises(ValidationFailed):
            P.coface_tables()
        with pytest.raises(DocumentSyntaxError):
            modelio.parse(modelio.serialize(P))

    @pytest.mark.parametrize(
        "P, degree, cid",
        [
            (Complex({0: ["a b"]}), 0, "a b"),
            (core.standard_cube(0), 0, ""),
            (Complex({0: ["a", "b"], 1: ["e\tf"]}, {(1, "e\tf"): _INTERVAL_FACES}), 1, "e\tf"),
        ],
        ids=["space-in-vertex-id", "empty-vertex-id", "tab-in-edge-id"],
    )
    def test_ids_the_format_cannot_carry_are_refused(self, P, degree, cid, tmp_path):
        assert core.validate(P) == []
        named = re.escape(f"cell {cid!r} of degree {degree}")
        with pytest.raises(OutOfRange, match=named):
            modelio.serialize(P)
        path = tmp_path / "out.pcsv"
        path.write_text("kept\n")
        with pytest.raises(OutOfRange, match=named):
            modelio.save(P, path)
        assert path.read_text() == "kept\n"

    @settings(max_examples=100, deadline=None)
    @given(glued_complexes())
    def test_valid_complexes_round_trip(self, P):
        assert core.validate(P) == []
        assert modelio.parse(modelio.serialize(P)) == P


class TestReadText:
    def test_bad_byte_names_its_line(self, tmp_path):
        path = tmp_path / "bad.pcs"
        path.write_bytes(b"pcsv1\r\n0 a\n0 b\xe9\n")
        with pytest.raises(DocumentSyntaxError) as excinfo:
            modelio.load(path)
        assert excinfo.value.line_number == 3
        assert "0xe9" in str(excinfo.value)

    def test_utf8_text_is_read(self, tmp_path):
        path = tmp_path / "ok.pcs"
        path.write_bytes("pcsv1\r\n0 é\n".encode())
        assert modelio.load(path).cell_ids(0) == ("é",)


class TestGrid:
    def test_unit_grid_is_standard_square(self):
        P = modelio.grid_with_holes(1, 1)
        assert core.are_isomorphic(P, core.standard_cube(2))

    def test_shared_memory_counts(self):
        P = modelio.grid_with_holes(3, 3, {(1, 1)})
        assert (P.size(0), P.size(1), P.size(2)) == (16, 24, 8)
        assert core.validate(P) == []

    def test_two_by_one(self):
        P = modelio.grid_with_holes(2, 1)
        assert (P.size(0), P.size(1), P.size(2)) == (6, 7, 2)

    def test_counts_formula(self):
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                holes = {(0, 0)} if m * n > 1 else set()
                P = modelio.grid_with_holes(m, n, holes)
                assert P.size(0) == (m + 1) * (n + 1)
                assert P.size(1) == m * (n + 1) + n * (m + 1)
                assert P.size(2) == m * n - len(holes)

    def test_hole_out_of_range(self):
        with pytest.raises(OutOfRange):
            modelio.grid_with_holes(2, 2, {(2, 0)})

    def test_degenerate_size(self):
        with pytest.raises(OutOfRange):
            modelio.grid_with_holes(0, 1)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2 ** 32 - 1),
    )
    def test_acyclic_with_corner_extremals(self, m, n, seed):
        rng = random.Random(seed)
        holes = {
            (i, j) for i in range(m) for j in range(n) if rng.random() < 0.4
        }
        P = modelio.grid_with_holes(m, n, holes)
        assert core.validate(P) == []
        assert fbg.one_skeleton_is_acyclic(P)
        assert core.minimal_vertices(P) == {CellRef(0, "(0,0)")}
        assert core.maximal_vertices(P) == {CellRef(0, f"({m},{n})")}


class TestFixtures:
    @pytest.mark.parametrize("name", modelio.FIXTURE_NAMES)
    def test_all_fixtures_valid(self, name):
        assert core.validate(modelio.named_fixture(name)) == []

    def test_double_edge_shape(self, double_edge):
        assert (double_edge.size(0), double_edge.size(1)) == (2, 2)

    def test_circle_edge_not_regular(self, circle):
        assert not core.is_regular(circle, CellRef(1, "e"))

    def test_swiss_flag_holes(self):
        P = modelio.named_fixture("swiss_flag")
        assert P.size(2) == 25 - 5

    def test_unknown(self):
        with pytest.raises(UnknownFixture):
            modelio.named_fixture("moebius")


class TestDot:
    def test_interval(self, interval):
        dot = modelio.export_dot(interval)
        assert '"a0" -> "a1" [label="e"];' in dot
        assert dot.count("->") == 1

    def test_double_edge_has_two_arcs(self, double_edge):
        dot = modelio.export_dot(double_edge)
        assert dot.count('"u" -> "w"') == 2

    def test_square_comment(self, square):
        dot = modelio.export_dot(square)
        assert "// square s: [eL eR eB eT]" in dot
        assert '"sq:s" [shape=plaintext label="s"];' in dot
        assert dot.count("style=dashed") == 4

    def test_deterministic(self, shared_memory):
        assert modelio.export_dot(shared_memory) == modelio.export_dot(
            shared_memory
        )

    def test_dimension_guard(self):
        with pytest.raises(Exception):
            modelio.export_dot(core.standard_cube(3))

    def test_quotes_and_backslashes_are_escaped(self):
        P = Complex({0: ['a"b', "c\\"], 1: ["e"]}, {(1, "e"): {(1, 0): 'a"b', (1, 1): "c\\"}})
        assert modelio.export_dot(P, 'g"1').splitlines() == [
            'digraph "g\\"1" {',
            '  "a\\"b" [label="a\\"b"];',
            '  "c\\\\" [label="c\\\\"];',
            '  "a\\"b" -> "c\\\\" [label="e"];',
            "}",
        ]

    def test_every_quoted_string_closes(self, square):
        text = modelio.serialize(square).replace("eL", 'e"L').replace("w00", "w\\00")
        for line in modelio.export_dot(modelio.parse(text)).splitlines():
            if line.startswith("  //"):  # a comment runs to the end of its line
                continue
            assert '"' not in re.sub(r'"(?:[^"\\]|\\.)*"', "", line), line


# Text that reaches past the header and tokenizer: digits, face keys,
# separators and the odd unicode digit or space.
_DOCUMENT_TEXT = st.text(alphabet="0123456789dpos_=,-# \n\t\u0663\u00a0\x00abcé", max_size=60)
_DOCUMENT = modelio.serialize(modelio.grid_with_holes(2, 2, {(1, 0)}))
_RECIPE = recipes.format_recipe(recipes.grid_reduction_recipe(2, 2, {(1, 0)}))


def _splice(base: str, text: str, start: int, length: int) -> str:
    start %= len(base) + 1
    return base[:start] + text + base[start + length :]


class TestParsersRaiseOnlyPrecubicalError:
    """Whatever the text, the parsers return or raise a PrecubicalError."""

    @staticmethod
    def parses_or_raises_typed(parse, text):
        try:
            parse(text)
        except PrecubicalError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.text() | _DOCUMENT_TEXT | _DOCUMENT_TEXT.map(lambda t: "pcsv1\n" + t))
    @example("pcsv1\n1 e d" + "9" * 5000 + "_0=a\n")
    def test_document_of_any_text(self, text):
        self.parses_or_raises_typed(modelio.parse, text)

    @settings(max_examples=200, deadline=None)
    @given(st.text() | _DOCUMENT_TEXT, st.integers(0, 10**4), st.integers(0, 8))
    def test_valid_document_with_text_spliced_in(self, text, start, length):
        self.parses_or_raises_typed(modelio.parse, _splice(_DOCUMENT, text, start, length))

    @settings(max_examples=200, deadline=None)
    @given(st.text() | _DOCUMENT_TEXT)
    def test_recipe_of_any_text(self, text):
        self.parses_or_raises_typed(recipes.parse_recipe, text)

    @settings(max_examples=200, deadline=None)
    @given(st.text() | _DOCUMENT_TEXT, st.integers(0, 10**4), st.integers(0, 8))
    def test_valid_recipe_with_text_spliced_in(self, text, start, length):
        self.parses_or_raises_typed(recipes.parse_recipe, _splice(_RECIPE, text, start, length))
