"""File format, example generators, and DOT export.

The on-disk format is a plain text document:

    pcsv1
    # comment
    0 a0
    0 a1
    1 e d1_0=a0 d1_1=a1 pos=0,1

One record per line: degree, id, then the face entries as `d<i>_<k>=<id>`
sorted by (i, k). An optional trailing `pos=<ints>` token carries layout
coordinates; it is metadata only. serialize emits records sorted by
(degree, id), so serialization is deterministic and round-trips byte-
identically for canonically ordered documents.
"""

from __future__ import annotations

import re

from . import core
from .core import Complex
from .errors import DocumentSyntaxError, OutOfRange, UnknownFixture, ValidationFailed

HEADER = "pcsv1"

_FACE_KEY = re.compile(r"^d(\d+)_([01])$")
# The face keys of degrees up to 8, each to one shared (i, k) tuple; parse
# reads any other key by _FACE_KEY.
_FACE_KEYS = {f"d{i}_{k}": (i, k) for i in range(1, 9) for k in (0, 1)}


def serialize(P: Complex, name: str = None) -> str:
    """The pcsv1 document of P, one record per id, a repeated id as often as
    it is given. Every id is one token, as the Complex constructor checks;
    a name that is not None or a str of one line raises OutOfRange."""
    if name is not None and not isinstance(name, str):
        raise OutOfRange(f"name must be a str or None, not {name!r}")
    if name and name.splitlines() != [name]:  # parse splits lines as str.splitlines does
        raise OutOfRange(f"name {name!r}: a pcsv1 name is one line")
    lines = [HEADER]
    if name:
        lines.append(f"# {name}")
    coords = P.coords_table()
    for n in P.degrees():
        for cid in sorted(P.cell_ids(n)):
            table = P.faces_of(n, cid)
            parts = [str(n), cid, *(f"d{i}_{k}={table[(i, k)]}" for i, k in sorted(table))]
            if (pos := coords.get((n, cid))) is not None:
                parts.append("pos=" + ",".join(map(str, pos)))
            lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse(text: str) -> Complex:
    """Parse a document; the complex must pass validation, otherwise
    ValidationFailed carries the full violation report."""
    lines = text.splitlines()
    cells: dict[int, list[str]] = {}
    faces: dict[tuple[int, str], dict[tuple[int, int], str]] = {}
    coords: dict[tuple[int, str], tuple[int, ...]] = {}
    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != HEADER:
                raise DocumentSyntaxError(lineno, f"expected header {HEADER!r}")
            header_seen = True
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise DocumentSyntaxError(lineno, "record needs a degree and an id")
        try:
            degree = int(tokens[0])
        except ValueError:
            raise DocumentSyntaxError(lineno, f"bad degree {tokens[0]!r}") from None
        if degree < 0:
            raise DocumentSyntaxError(lineno, f"negative degree {degree}")
        cid = tokens[1]
        table: dict[tuple[int, int], str] = {}
        for token in tokens[2:]:
            key, sep, value = token.partition("=")
            if not sep:
                raise DocumentSyntaxError(lineno, f"bad token {token!r}")
            if key == "pos":
                try:
                    coords[(degree, cid)] = tuple(map(int, value.split(",")))
                except ValueError:
                    raise DocumentSyntaxError(lineno, f"bad position {value!r}") from None
                continue
            ik = _FACE_KEYS.get(key)
            if ik is None:
                m = _FACE_KEY.match(key)
                if not m:
                    raise DocumentSyntaxError(lineno, f"bad face key {key!r}")
                try:
                    ik = int(m.group(1)), int(m.group(2))
                except ValueError:  # more digits than int() reads: beyond any degree
                    ik = 0, 0
            if not 1 <= ik[0] <= degree:
                raise DocumentSyntaxError(
                    lineno, f"face key {key!r} out of range for degree {degree}"
                )
            if ik in table:
                raise DocumentSyntaxError(lineno, f"face key {key!r} given twice")
            table[ik] = value
        if len(table) != 2 * degree:  # each key in range and given once: one is missing
            i, k = next((i, k) for i in range(1, degree + 1) for k in (0, 1) if (i, k) not in table)
            raise DocumentSyntaxError(lineno, f"cell {cid!r} is missing face key d{i}_{k}")
        cells.setdefault(degree, []).append(cid)
        if degree > 0:
            faces[(degree, cid)] = table
    if not header_seen:
        raise DocumentSyntaxError(len(lines) + 1, f"missing header {HEADER!r}")
    P = Complex._owning(cells, faces, coords)
    if report := core.validate(P):
        raise ValidationFailed(report)
    return P


def read_text(path) -> str:
    """A file's text. Bytes that are not UTF-8 raise DocumentSyntaxError
    naming the line of the first one."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise DocumentSyntaxError(lineno, f"byte {data[exc.start]:#04x} is not UTF-8") from None


def load(path) -> Complex:
    return parse(read_text(path))


def save(P: Complex, path, name: str = None):
    text = serialize(P, name)  # before the file is opened: a refusal leaves it as it was
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# -- generators ------------------------------------------------------------


def vertex_id(i: int, j: int) -> str:
    return f"({i},{j})"


def grid_with_holes(m: int, n: int, holes=()) -> Complex:
    """An m-by-n grid of squares modelling two sequential processes, with
    the squares at the given (i, j) positions removed. Holes remove only
    squares: both interleavings around a hole stay executable, only their
    independence square is absent."""
    if not (type(m) is type(n) is int and m >= 1 and n >= 1):
        raise OutOfRange(f"grid needs ints m >= 1 and n >= 1, not {m!r} and {n!r}")
    try:
        holes = set(holes)
    except TypeError:
        raise OutOfRange(f"holes must be a collection of (i, j) pairs, not {holes!r}") from None
    for hole in holes:
        if not (isinstance(hole, tuple) and len(hole) == 2 and type(hole[0]) is type(hole[1]) is int
                and 0 <= hole[0] < m and 0 <= hole[1] < n):
            raise OutOfRange(f"hole {hole!r} is not a square (i, j) of the {m}x{n} grid")
    # each id formatted once, per row i, and one (i, j) tuple per position
    at = [[(i, j) for j in range(n + 1)] for i in range(m + 1)]
    vertex = [[vertex_id(i, j) for j in range(n + 1)] for i in range(m + 1)]
    h = [[f"h({i},{j})" for j in range(n + 1)] for i in range(m)]
    v = [[f"v({i},{j})" for j in range(n)] for i in range(m + 1)]
    cells = {0: [c for row in vertex for c in row],
             1: [e for table in (h, v) for row in table for e in row], 2: []}
    faces = {}
    coords = {}
    for i in range(m + 1):
        for cid, pos in zip(vertex[i], at[i]):
            coords[(0, cid)] = pos
    for i in range(m):
        here, there = vertex[i], vertex[i + 1]
        for j, (eid, pos) in enumerate(zip(h[i], at[i])):
            faces[(1, eid)] = {(1, 0): here[j], (1, 1): there[j]}
            coords[(1, eid)] = pos
    for i in range(m + 1):
        here = vertex[i]
        for j, (eid, pos) in enumerate(zip(v[i], at[i])):
            faces[(1, eid)] = {(1, 0): here[j], (1, 1): here[j + 1]}
            coords[(1, eid)] = pos
    for i in range(m):
        for j in range(n):
            if (i, j) in holes:
                continue
            sid = f"s({i},{j})"
            cells[2].append(sid)
            faces[(2, sid)] = {(1, 0): v[i][j], (1, 1): v[i + 1][j],
                               (2, 0): h[i][j], (2, 1): h[i][j + 1]}
            coords[(2, sid)] = at[i][j]
    return Complex._owning(cells, faces, coords)


# Grid parameters of the worked examples with holes. The concrete sizes
# and hole positions are configuration constants of this package.
SHARED_MEMORY_GRID = (3, 3, frozenset({(1, 1)}))
HOLES_EXAMPLE_GRID = (5, 5, frozenset({(1, 3), (3, 1)}))
ORDERED_HOLES_EXAMPLE_GRID = (5, 5, frozenset({(1, 1), (3, 3)}))
SWISS_FLAG_GRID = (5, 5, frozenset({(2, 1), (1, 2), (2, 2), (3, 2), (2, 3)}))

GRID_FIXTURES = {
    "shared_memory": SHARED_MEMORY_GRID,
    "holes_example": HOLES_EXAMPLE_GRID,
    "ordered_holes_example": ORDERED_HOLES_EXAMPLE_GRID,
    "swiss_flag": SWISS_FLAG_GRID,
}

def _square_complex(extra_cells=None, extra_faces=None) -> Complex:
    cells = {
        0: ["w00", "w01", "w10", "w11"],
        1: ["eL", "eR", "eB", "eT"],
        2: ["s"],
    }
    faces = {
        (1, "eL"): {(1, 0): "w00", (1, 1): "w01"},
        (1, "eR"): {(1, 0): "w10", (1, 1): "w11"},
        (1, "eB"): {(1, 0): "w00", (1, 1): "w10"},
        (1, "eT"): {(1, 0): "w01", (1, 1): "w11"},
        (2, "s"): {(1, 0): "eL", (1, 1): "eR", (2, 0): "eB", (2, 1): "eT"},
    }
    if extra_cells:
        for n, ids in extra_cells.items():
            cells[n] = cells.get(n, []) + ids
    if extra_faces:
        faces.update(extra_faces)
    return Complex(cells, faces)


_FIXTURES = {  # name -> builder; FIXTURE_NAMES keeps this order
    "interval": lambda: Complex(
        {0: ["a0", "a1"], 1: ["e"]},
        {(1, "e"): {(1, 0): "a0", (1, 1): "a1"}},
    ),
    "circle": lambda: Complex(
        {0: ["v"], 1: ["e"]},
        {(1, "e"): {(1, 0): "v", (1, 1): "v"}},
    ),
    "double_edge": lambda: Complex(
        {0: ["u", "w"], 1: ["p", "q"]},
        {
            (1, "p"): {(1, 0): "u", (1, 1): "w"},
            (1, "q"): {(1, 0): "u", (1, 1): "w"},
        },
    ),
    "path2": lambda: Complex(
        {0: ["v0", "v1", "v2"], 1: ["e1", "e2"]},
        {
            (1, "e1"): {(1, 0): "v0", (1, 1): "v1"},
            (1, "e2"): {(1, 0): "v1", (1, 1): "v2"},
        },
    ),
    "square": _square_complex,
    "square_plus_tail": lambda: _square_complex(
        extra_cells={0: ["t"], 1: ["g"]},
        extra_faces={(1, "g"): {(1, 0): "t", (1, 1): "w10"}},
    ),
    **{name: (lambda grid=grid: grid_with_holes(*grid)) for name, grid in GRID_FIXTURES.items()},
}

FIXTURE_NAMES = tuple(_FIXTURES)


def named_fixture(name: str) -> Complex:
    if not isinstance(name, str) or name not in _FIXTURES:
        raise UnknownFixture(f"unknown fixture {name!r}")
    return _FIXTURES[name]()


# -- DOT export ------------------------------------------------------------


def _quoted(text: str) -> str:
    """A DOT quoted string of text, with its backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(P: Complex, name: str = "complex") -> str:
    """Directed-graph text for graphviz. Vertices become nodes, edges
    become labeled arcs, and each square is emitted as a comment plus a
    plaintext node dashed-linked to the label nodes of its four boundary
    edges. Every id and the graph name, a str, are written quoted."""
    if not isinstance(name, str):
        raise OutOfRange(f"graph name must be a str, not {name!r}")
    core._require_dimension_2(P, "export_dot")
    on_edge = P.coface_tables()[2]
    coords = P.coords_table()
    out = [f"digraph {_quoted(name)} {{"]
    for v in sorted(P.cell_ids(0)):
        attrs = [f"label={_quoted(v)}"]
        if len(pos := coords.get((0, v), ())) >= 2:
            attrs.append(f'pos="{pos[0]},{pos[1]}!"')
        out.append(f'  {_quoted(v)} [{" ".join(attrs)}];')
    for e in sorted(P.cell_ids(1)):
        faces = P.faces_of(1, e)
        src, tgt = _quoted(faces[(1, 0)]), _quoted(faces[(1, 1)])
        if e in on_edge:
            # route through a label node so squares have an anchor
            mid = _quoted(f"mid:{e}")
            out.append(f"  {mid} [shape=plaintext label={_quoted(e)}];")
            out.append(f"  {src} -> {mid} [arrowhead=none];")
            out.append(f"  {mid} -> {tgt};")
        else:
            out.append(f"  {src} -> {tgt} [label={_quoted(e)}];")
    for s in sorted(P.cell_ids(2)):
        faces = P.faces_of(2, s)
        boundary = [faces[(1, 0)], faces[(1, 1)], faces[(2, 0)], faces[(2, 1)]]
        out.append(f"  // square {s}: [{' '.join(boundary)}]")
        sq = _quoted(f"sq:{s}")
        out.append(f"  {sq} [shape=plaintext label={_quoted(s)}];")
        for e in boundary:
            out.append(f"  {sq} -> {_quoted(f'mid:{e}')} [style=dashed dir=none];")
    out.append("}")
    return "\n".join(out) + "\n"
