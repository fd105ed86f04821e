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

    def test_face_key_given_twice(self):
        text = "pcsv1\n0 a\n0 b\n1 e d1_0=a d1_0=b d1_1=b\n"
        with pytest.raises(DocumentSyntaxError, match="'d1_0' given twice") as excinfo:
            modelio.parse(text)
        assert excinfo.value.line_number == 4

    @pytest.mark.parametrize(
        "record, message",
        [
            ("1 e d1_0=a e1_0=b", "bad face key 'e1_0'"),
            ("1 e d1_0=a d1_2=b", "bad face key 'd1_2'"),
            ("1 e d1_0=a d1_1=b d2_0=a", "face key 'd2_0' out of range for degree 1"),
            ("1 e d1_0=a d01_0=a d1_1=b", "face key 'd01_0' given twice"),
            (f"1 e d1_0=a d{'9' * 5000}_1=b", "out of range for degree 1"),
            ("1 e d1_0=a pos=0,1", "cell 'e' is missing face key d1_1"),
            ("1 e d1_1=b d3_1=a", "face key 'd3_1' out of range for degree 1"),
        ],
        ids=["e-key", "k-2", "i-past-degree", "leading-zero-twice", "more-digits-than-int",
             "missing-beside-pos", "missing-beside-extra"],
    )
    def test_face_key_messages(self, record, message):
        text = f"pcsv1\n0 a\n# note\n0 b\n{record}\n"
        with pytest.raises(DocumentSyntaxError, match=re.escape(message)) as excinfo:
            modelio.parse(text)
        assert excinfo.value.line_number == 5

    def test_repeated_id_is_written_as_often_as_given(self):
        P = Complex({0: ["a", "b", "a"], 1: ["e"]}, {(1, "e"): {(1, 0): "a", (1, 1): "b"}})
        text = modelio.serialize(P)
        assert text.splitlines()[1:4] == ["0 a", "0 a", "0 b"]
        with pytest.raises(ValidationFailed) as excinfo:
            modelio.parse(text)
        report = excinfo.value.report
        assert report == core.validate(P) and [v.kind for v in report] == ["duplicate-id"]

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
    """A complex that validates is one that pcsv1 carries: an id that is
    not one token, a face entry at no face position of its cell, a
    negative degree or a position that is not one or more ints cannot be
    stated in a document, so the constructor refuses it."""

    @pytest.mark.parametrize(
        "cells, faces, named",
        [
            ({0: ["a", "b"], 1: ["e"]}, {(1, "e"): {**_INTERVAL_FACES, (2, 0): "a"}},
             "cell (1, 'e'): face key (2, 0)"),
            ({0: ["a", "b"], 1: ["e"]}, {(1, "e"): {**_INTERVAL_FACES, (0, 1): "a"}},
             "cell (1, 'e'): face key (0, 1)"),
            ({0: ["a", "b"], 1: ["e"]}, {(1, "e"): {**_INTERVAL_FACES, (1, 2): "a"}},
             "cell (1, 'e'): face key (1, 2)"),
            ({0: ["a", "b"], 1: ["e"]}, {(1, "e"): _INTERVAL_FACES, (0, "a"): {(1, 0): "b"}},
             "cell (0, 'a'): face key (1, 0)"),
            ({-1: ["z"], 0: ["a"]}, {}, "degree -1"),
        ],
        ids=["entry-d2_0-on-edge", "entry-d0_1-on-edge", "entry-k-2-on-edge",
             "entry-on-vertex", "negative-degree"],
    )
    def test_what_the_format_cannot_carry_is_reported(self, cells, faces, named):
        with pytest.raises(OutOfRange, match=re.escape(named)):
            Complex(cells, faces)

    @pytest.mark.parametrize(
        "tables, named",
        [
            *((({0: ["a", cid]},), f"degree 0: id {cid!r} is not")
              for cid in [7, b"a", ("a",), ["a"], "", "a b", "x\u2028y"]),
            (({0: ["a", "b"], 1: ["e\tf"]}, {(1, "e\tf"): _INTERVAL_FACES}),
             r"degree 1: id 'e\tf' is not"),
            *((({0: ["a", "7"], 1: ["e"]}, {(1, "e"): {(1, 0): fid, (1, 1): "a"}}),
               f"cell (1, 'e'): face id {fid!r} is not") for fid in [7, "x y"]),
            (({0: ["a", "b"], 1: ["e"]}, {(1, 7): _INTERVAL_FACES}), "faces key (1, 7) is not"),
            *((({0: ["a", "b"], 1: ["e"]}, {(1, "e"): _INTERVAL_FACES}, {(1, "e"): pos}),
               "cell (1, 'e'): position") for pos in [(0, "x"), (1.5, 2), (True, 2), ()]),
        ],
        ids=["int-id", "bytes-id", "tuple-id", "list-id", "empty-vertex-id", "space-in-vertex-id",
             "line-separator-in-vertex-id", "tab-in-edge-id", "int-face-id", "space-in-face-id",
             "int-id-in-faces-key", "str-position", "float-position", "bool-position",
             "empty-position"],
    )
    def test_ids_the_format_cannot_carry_are_refused(self, tables, named):
        # written with str(), the face id 7 would read back as the vertex "7"
        with pytest.raises(OutOfRange, match=re.escape(named)):
            Complex(*tables)

    @pytest.mark.parametrize("name", ["x\n0 ghost", "x\u2028y"], ids=["newline", "line-separator"])
    def test_name_of_more_than_one_line_is_refused(self, name, tmp_path):
        # parse splits lines as str.splitlines does, so the first name would
        # add a vertex `ghost` and the second would make a record of `y`
        P = modelio.named_fixture("interval")
        with pytest.raises(OutOfRange, match="name"):
            modelio.serialize(P, name)
        path = tmp_path / "out.pcsv"
        path.write_text("kept\n")
        with pytest.raises(OutOfRange):
            modelio.save(P, path, name)
        assert path.read_text() == "kept\n"

    @pytest.mark.parametrize("name", [5, 0], ids=["int", "zero"])
    def test_name_that_is_not_a_str_is_refused(self, name, tmp_path):
        # 0 must not be read as no name
        P = modelio.named_fixture("interval")
        with pytest.raises(OutOfRange, match="name must be a str or None"):
            modelio.serialize(P, name)
        path = tmp_path / "out.pcsv"
        with pytest.raises(OutOfRange):
            modelio.save(P, path, name)
        assert not path.exists()

    @settings(max_examples=100, deadline=None)
    @given(glued_complexes())
    def test_valid_complexes_round_trip(self, P):
        assert core.validate(P) == []
        assert modelio.parse(modelio.serialize(P)) == P


_EDGE_CELLS = {0: ["a", "b"], 1: ["e"]}


@pytest.mark.parametrize(
    "record, tables, named",
    [
        ("-1 z", ({-1: ["z"], 0: ["a"]},), "degree -1"),
        *((f"1 e d1_0=a d1_1=b {key}=a", (_EDGE_CELLS, {(1, "e"): {**_INTERVAL_FACES, ik: "a"}}),
           "cell (1, 'e')") for key, ik in [("d2_0", (2, 0)), ("d0_1", (0, 1)), ("d1_2", (1, 2))]),
        ("0 c d1_0=a", ({0: ["a", "b", "c"]}, {(0, "c"): {(1, 0): "a"}}), "cell (0, 'c')"),
        # each position as serialize would write it
        *((f"1 e d1_0=a d1_1=b pos={','.join(map(str, pos))}",
           (_EDGE_CELLS, {(1, "e"): _INTERVAL_FACES}, {(1, "e"): pos}), "cell (1, 'e')")
          for pos in [(0, "x"), (1.5, 2), (True, 2), (), ('1"] x [y="', 2)]),
    ],
    ids=["negative-degree", "entry-d2_0-on-edge", "entry-d0_1-on-edge", "entry-k-2-on-edge",
         "entry-on-vertex", "str-position", "float-position", "bool-position", "empty-position",
         "injected-position"],
)
def test_parse_and_the_constructor_refuse_the_same_shapes(record, tables, named):
    # the document form fails at its line, the table form when it is built
    with pytest.raises(DocumentSyntaxError, match="line 4"):
        modelio.parse(f"pcsv1\n0 a\n0 b\n{record}\n")
    with pytest.raises(OutOfRange, match=re.escape(named)):
        Complex(*tables)


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


def reference_grid(m, n, holes):
    """The cells of grid_with_holes(m, n, holes), listed one by one from
    their positions: ids in order per degree, face tables and positions."""
    ids = {0: [], 1: [], 2: []}
    faces, coords = {}, {}

    def add(degree, cid, position, table=None):
        ids[degree].append(cid)
        coords[(degree, cid)] = position
        if table is not None:
            faces[(degree, cid)] = table

    for i in range(m + 1):
        for j in range(n + 1):
            add(0, f"({i},{j})", (i, j))
    for i in range(m):
        for j in range(n + 1):
            add(1, f"h({i},{j})", (i, j), {(1, 0): f"({i},{j})", (1, 1): f"({i + 1},{j})"})
    for i in range(m + 1):
        for j in range(n):
            add(1, f"v({i},{j})", (i, j), {(1, 0): f"({i},{j})", (1, 1): f"({i},{j + 1})"})
    for i in range(m):
        for j in range(n):
            if (i, j) not in holes:
                add(2, f"s({i},{j})", (i, j), {(1, 0): f"v({i},{j})", (1, 1): f"v({i + 1},{j})",
                                               (2, 0): f"h({i},{j})", (2, 1): f"h({i},{j + 1})"})
    return ids, faces, coords


def assert_grid_is_reference(m, n, holes):
    P = modelio.grid_with_holes(m, n, holes)
    ids, faces, coords = reference_grid(m, n, holes)
    assert P.degrees() == [d for d in (0, 1, 2) if ids[d]]
    for d in (0, 1, 2):
        assert P.cell_ids(d) == tuple(ids[d])
        for cid in ids[d]:
            assert P.face_table(CellRef(d, cid)) == faces.get((d, cid), {})
            assert P.coords(CellRef(d, cid)) == coords[(d, cid)]
    assert P.coords_table() == coords
    assert core.validate(P) == []


class TestGrid:
    @pytest.mark.parametrize("name", sorted(modelio.GRID_FIXTURES))
    def test_fixture_grids_match_a_cell_by_cell_construction(self, name):
        assert_grid_is_reference(*modelio.GRID_FIXTURES[name])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.floats(0, 1), st.randoms(use_true_random=False))
    def test_random_grids_match_a_cell_by_cell_construction(self, m, n, p, rng):
        assert_grid_is_reference(m, n, {(i, j) for i in range(m) for j in range(n)
                                        if rng.random() < p})

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

    def test_unknown_unhashable_name(self):
        with pytest.raises(UnknownFixture):
            modelio.named_fixture(["x"])


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

    @pytest.mark.parametrize("pos", [('1"] x [y="', 2), (1.5, 2), (True, 2)],
                             ids=["injection", "float", "bool"])
    def test_a_position_that_is_not_ints_is_refused(self, pos):
        # refused before export_dot could write it
        with pytest.raises(OutOfRange, match=re.escape("cell (0, 'a'): position")):
            Complex({0: ["a"]}, coords={(0, "a"): pos})

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
