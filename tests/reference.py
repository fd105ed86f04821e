"""Reference helpers only the tests use: the cube morphism of a cell,
subcomplex tests, the sub-table on a set of cells, `CellRef` readers
of a complex's cells and of the squares on an edge, and the classes of
the isomorphism search as first written."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping

from precubical.core import CellRef, Complex, standard_cube
from precubical.errors import UnknownCell


def all_cells(P: Complex) -> list[CellRef]:
    return [cell for n in P.degrees() for cell in P.cells(n)]


def squares_on(P: Complex, e: CellRef) -> list[CellRef]:
    """The squares having e among their faces, sorted by id."""
    return [CellRef(2, s) for s in P.coface_tables()[2].get(e.id, ())]


@dataclass(frozen=True)
class CubeMorphismImage:
    """The image data of the unique cube morphism sending the top cell of
    the standard n-cube to a chosen cell x."""

    source_dimension: int
    assignment: Mapping[CellRef, CellRef]


def cube_morphism(P: Complex, x: CellRef) -> CubeMorphismImage:
    """Map every cell of the standard |x|-cube to the corresponding
    iterated face of x. Well-defined on valid complexes by the cubical
    identities."""
    if not P.has(x):
        raise UnknownCell(f"no cell {x.id!r} of degree {x.degree}")
    n = x.degree
    cube = standard_cube(n)
    top = CellRef(n, "*" * n)
    assignment: dict[CellRef, CellRef] = {top: x}
    for r in range(n, 0, -1):
        for c in cube.cells(r):
            image = assignment[c]
            for i in range(1, r + 1):
                for k in (0, 1):
                    assignment[cube.face(c, i, k)] = P.face(image, i, k)
    return CubeMorphismImage(n, assignment)


def is_subcomplex(P: Complex, Q: Complex) -> bool:
    """True iff every cell of Q is a cell of P with the same face table
    and Q is face-closed (no dangling boundary)."""
    for n in Q.degrees():
        if not Q._cell_sets[n] <= P._cell_sets.get(n, frozenset()):
            return False
        if n == 0:
            continue
        below = Q._cell_sets.get(n - 1, frozenset())
        for cid in Q._cell_sets[n]:
            table = Q.faces_of(n, cid)
            if table != P.faces_of(n, cid) or not below.issuperset(table.values()):
                return False
    return True


def restrict(P: Complex, kept: Iterable[CellRef]) -> Complex:
    """The sub-table of P on the given cells (not checked for closure)."""
    kept_set = set(kept)
    cells: dict[int, list[str]] = {}
    faces = {}
    coords = {}
    for cell in sorted(kept_set):
        cells.setdefault(cell.degree, []).append(cell.id)
        if cell.degree > 0:
            faces[(cell.degree, cell.id)] = P.face_table(cell)
        pos = P.coords(cell)
        if pos is not None:
            coords[(cell.degree, cell.id)] = pos
    return Complex(cells, faces, coords)


def stars(P: Complex, classes: dict) -> list[dict[str, tuple[tuple, tuple, int]]]:
    """`core._stars` as first written, one loop for every cell and four
    lists of squares per edge: per degree, from 0, per cell id, its face
    ids by position, its cofaces alone at their position and its class,
    numbered in `classes` by signature."""
    starts, ends, _ = P.coface_tables()
    square_keys = ((1, 0), (1, 1), (2, 0), (2, 1))
    squares_at: dict[str, tuple[list, list, list, list]] = {}  # edge -> its squares, by position
    for s in P._cell_sets.get(2, ()):
        faces = P._faces[(2, s)]
        for at, key in enumerate(square_keys):
            squares_at.setdefault(faces[key], ([], [], [], []))[at].append(s)
    out = []
    below: dict[str, int] = {}  # id -> class, in the degree below
    for n in P.degrees():
        by_position = itemgetter(*[(i, k) for i in range(1, n + 1) for k in (0, 1)]) if n else None
        here, by_id = {}, {}
        for c in P._cell_sets[n]:
            ups, fids = (), ()
            if n == 0:
                ups = (starts.get(c, ()), ends.get(c, ()))
            else:
                fids = by_position(P._faces[(n, c)])
                if n == 1:
                    ups = squares_at.get(c, ((), (), (), ()))
            signature = (n, *map(len, ups), *map(below.get, fids))
            here[c] = cls = classes.setdefault(signature, len(classes))
            by_id[c] = (fids, tuple([at[0] for at in ups if len(at) == 1]), cls)
        below = here
        out.append(by_id)
    return out
