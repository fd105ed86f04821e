"""Reference helpers only the tests use: the cube morphism of a cell,
subcomplex tests, the sub-table on a set of cells, and `CellRef` readers
of a complex's cells and of the squares on an edge."""

from __future__ import annotations

from dataclasses import dataclass
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
