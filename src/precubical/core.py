"""Precubical sets as explicit face tables.

A complex is a finite graded set of cells together with boundary operators
d_i^k sending a degree-n cell to a degree-(n-1) cell (1 <= i <= n,
k in {0, 1}) subject to the cubical identities
d_i^k d_j^l = d_{j-1}^l d_i^k for i < j.

Complexes are immutable after construction, as any caller sees them, and
all public operations here are pure. The library's reduction chains
(greedy, recipe generation and replay) copy their input once and then
patch that private working copy in place, step by step, from the ids
their certificates keep; no caller ever holds a complex that is patched,
and the copy owns the coface lists it edits. Cell identity is the pair
(degree, id string); coordinates attached by generators are layout
metadata only and are never consulted by any algorithm.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterable, Mapping, Optional

from .errors import DimensionUnsupported, OutOfRange, UnknownCell, ValidationFailed


@dataclass(frozen=True, order=True)
class CellRef:
    """A cell named by degree and an id unique within that degree."""

    degree: int
    id: str

    def __repr__(self):
        return f"CellRef({self.degree}, {self.id!r})"


class Complex:
    """A finite precubical set given by explicit face tables.

    `cells` maps each degree to an iterable of cell ids. `faces` maps
    (degree, id) to a mapping (i, k) -> face id of degree one less.
    The constructor stores the tables as given; use :func:`validate` to
    check the precubical identities and referential integrity.

    Internal code reads ids through :meth:`faces_of` and
    :meth:`coface_tables`; :class:`CellRef` is the type of the public API.
    The coface tables are filled by the check of the face tables, in a
    clean :func:`validate` or on first query, not here; :meth:`reduced`
    patches them.

    A complex never changes once a caller holds it. Only the library's
    private working copies, made by :meth:`_copy`, are changed, by
    :meth:`_patch`. A copy owns its cell sets and coface lists, and a
    patch edits them in place; it shares its face-table dicts with its
    source, so a patch replaces one to redirect it. A patch only removes
    cells, never adds one, and logs the (degree, id) of each cell it
    removes; a copy starts with an empty log.
    """

    def __init__(
        self,
        cells: Mapping[int, Iterable[str]],
        faces: Mapping[tuple[int, str], Mapping[tuple[int, int], str]] = (),
        coords: Mapping[tuple[int, str], tuple[int, ...]] = (),
    ):
        self._cells: Optional[dict[int, tuple[str, ...]]] = {  # None once patched
            n: tuple(ids) for n, ids in cells.items() if ids
        }
        self._cell_sets: dict[int, set[str]] = {n: set(ids) for n, ids in self._cells.items()}
        self._faces: dict[tuple[int, str], dict[tuple[int, int], str]] = {
            key: dict(table) for key, table in dict(faces).items()
        }
        self._coords: dict[tuple[int, str], tuple[int, ...]] = {
            key: tuple(pos) for key, pos in dict(coords).items()
        }
        self._log: list[tuple[int, str]] = []  # the (degree, id) of each cell _patch removed
        # (edges by d_1^0, edges by d_1^1, squares by face): id -> sorted ids
        self._cofaces: Optional[tuple[dict, dict, dict]] = None

    # -- basic accessors ---------------------------------------------------

    def degrees(self) -> list[int]:
        return sorted(self._cell_sets)

    @property
    def dimension(self) -> Optional[int]:
        """The largest nonempty degree, or None for the empty complex."""
        return max(self._cell_sets) if self._cell_sets else None

    def cell_ids(self, degree: int) -> tuple[str, ...]:
        """The ids as given to the constructor; sorted after :meth:`reduced`."""
        if self._cells is None:
            return tuple(sorted(self._cell_sets.get(degree, ())))
        return self._cells.get(degree, ())

    def cells(self, degree: int) -> list[CellRef]:
        return [CellRef(degree, i) for i in sorted(self._cell_sets.get(degree, ()))]

    def cell_set(self) -> frozenset[CellRef]:
        """Every cell, in a new set: O(cells)."""
        return frozenset(CellRef(n, cid) for n, ids in self._cell_sets.items() for cid in ids)

    def _cells_when(self, logged: int) -> frozenset[CellRef]:
        """The cells this complex had when its log held `logged` entries: a
        patch only removes cells, so these are the cells now plus those
        logged since. O(cells)."""
        return self.cell_set().union(itertools.starmap(CellRef, self._log[logged:]))

    def has(self, cell: CellRef) -> bool:
        return cell.id in self._cell_sets.get(cell.degree, ())

    def size(self, degree: int) -> int:
        return len(self._cell_sets.get(degree, ()))

    def faces_of(self, degree: int, cid: str) -> dict[tuple[int, int], str]:
        """The stored face table (i, k) -> face id of a cell (not a copy)."""
        return self._faces.get((degree, cid), {})

    def face(self, cell: CellRef, i: int, k: int) -> CellRef:
        if not self.has(cell):
            raise UnknownCell(f"no cell {cell.id!r} of degree {cell.degree}")
        fid = self.faces_of(cell.degree, cell.id).get((i, k))
        if fid is None:
            raise UnknownCell(
                f"cell {cell.id!r} of degree {cell.degree} has no face d{i}_{k}"
            )
        return CellRef(cell.degree - 1, fid)

    def face_table(self, cell: CellRef) -> dict[tuple[int, int], str]:
        return dict(self.faces_of(cell.degree, cell.id))

    def coords(self, cell: CellRef) -> Optional[tuple[int, ...]]:
        return self._coords.get((cell.degree, cell.id))

    def coords_table(self) -> dict[tuple[int, str], tuple[int, ...]]:
        return dict(self._coords)

    # -- coface tables -----------------------------------------------------

    def coface_tables(self) -> tuple[dict, dict, dict]:
        """The stored coface tables (edges by d_1^0, edges by d_1^1, squares by
        face), each id -> nonempty sorted id list, built unless they exist.
        Building raises ValidationFailed with :func:`validate`'s report, less
        duplicate ids, on a missing or dangling face or a broken identity."""
        if self._cofaces is None:
            report = _face_report(self)
            if report:
                raise ValidationFailed(report)
        return self._cofaces

    def edges_at(self, v: CellRef, k: Optional[int] = None) -> list[CellRef]:
        """The edges e with d_1^k e = v, or with v at either end if k is
        None, sorted by id."""
        starts, ends, _ = self.coface_tables()
        if k is not None:
            ids = (starts, ends)[k].get(v.id, ())
        else:
            ids = sorted({*starts.get(v.id, ()), *ends.get(v.id, ())})
        return [CellRef(1, e) for e in ids]

    def reduced(
        self,
        removed: Iterable[CellRef],
        redirected: Mapping[tuple[CellRef, int, int], CellRef] = (),
    ) -> Complex:
        """This complex without the cells `removed`, with each face entry
        (edge, 1, k) of `redirected` pointing at its target vertex instead.
        This complex is left as it is; the successor is a patched working
        copy. Checking that the step keeps the complex valid costs its star:
        UnknownCell for a removed cell, redirected edge or target this
        complex lacks; OutOfRange for a redirect that is not of an edge end
        to a vertex, or a step leaving a surviving cell a removed face or
        moving an edge of a surviving square; DimensionUnsupported above
        dimension 2; and ValidationFailed if this complex is invalid.
        """
        removed, redirected = frozenset(removed), dict(redirected)
        if (self.dimension or 0) > 2:
            raise DimensionUnsupported(f"reduced works in dimension <= 2, not {self.dimension}")
        starts, ends, on_edge = self.coface_tables()
        for cell in (*removed, *(e for e, _, _ in redirected), *redirected.values()):
            if not self.has(cell):
                raise UnknownCell(f"no cell {cell.id!r} of degree {cell.degree}")
        for (e, i, k), v in redirected.items():
            if (e.degree, i, v.degree) != (1, 1, 0) or k not in (0, 1):
                raise OutOfRange(f"{(e, i, k)!r} -> {v!r} does not move an edge end to a vertex")
        gone = {(c.degree, c.id) for c in removed}
        moves = [(e.id, 1, k, v.id) for (e, _, k), v in redirected.items() if (1, e.id) not in gone]
        moved = {(1, e, k) for e, _, k, _ in moves}
        for n, cid in gone | {(1, e) for e, *_ in moves}:  # every coface goes, or moves off
            for k, table in enumerate(((starts, ends), (on_edge,), ())[n]):
                for up in table.get(cid, ()):
                    if (n + 1, up) not in gone and (n + 1, up, k) not in moved:
                        raise OutOfRange(f"{CellRef(n + 1, up)!r} would lose its face {cid!r}")
        if any((0, v) in gone for *_, v in moves):
            raise OutOfRange("an edge end moves to a removed vertex")
        Q = self._copy()
        Q._patch(gone, moves)
        return Q

    def _copy(self) -> Complex:
        """A working copy. The coface tables are built on this complex
        first, so an invalid one raises ValidationFailed. The copy owns its
        cell sets and coface lists, which :meth:`_patch` edits; the
        face-table dicts inside its outer tables are shared."""
        tables = self.coface_tables()
        Q = Complex.__new__(Complex)
        Q._cells = self._cells
        Q._cell_sets = {n: set(ids) for n, ids in self._cell_sets.items()}
        Q._faces = dict(self._faces)
        Q._coords = dict(self._coords)
        Q._log = []
        Q._cofaces = tuple({key: ids.copy() for key, ids in table.items()} for table in tables)
        return Q

    def _patch(self, removed, redirected):
        """Remove the cells `removed`, (degree, id) pairs, and move the edge
        ends `redirected`, (edge, 1, k, vertex) ids, in place, by a step that
        keeps this working copy valid: a holding certificate's, or one that
        :meth:`reduced` checked. The cost is what the step touches; the
        coface lists of a removed cell empty as its cofaces go or move. A
        redirect replaces the face-table dict, which may be shared. Each cell
        removed is logged: the cells before are those after plus the new log."""
        faces, tables = self._faces, self._cofaces
        unlinked = []  # (table index, face id, cell id): coface entries to take out
        for n, cid in removed:
            ids = self._cell_sets[n]
            ids.remove(cid)
            if not ids:
                del self._cell_sets[n]
            self._log.append((n, cid))
            self._coords.pop((n, cid), None)
            table = faces.pop((n, cid), {})
            unlinked += {(k if n == 1 else 2, f, cid) for (_, k), f in table.items()}
        for e, _, k, v in redirected:
            table = faces[(1, e)]
            unlinked.append((k, table[(1, k)], e))
            bisect.insort(tables[k].setdefault(v, []), e)
            faces[(1, e)] = {**table, (1, k): v}
        for t, f, cid in unlinked:
            ids = tables[t][f]
            ids.remove(cid)
            if not ids:
                del tables[t][f]
        self._cells = None

    # -- equality is cell-for-cell on cells and faces, ignoring metadata ---

    def __eq__(self, other):
        if not isinstance(other, Complex):
            return NotImplemented
        return self._cell_sets == other._cell_sets and all(
            self.faces_of(n, cid) == other.faces_of(n, cid)
            for n, ids in self._cell_sets.items() if n > 0 for cid in ids
        )

    __hash__ = None

    def __repr__(self):
        counts = ", ".join(f"{n}: {len(self.cell_ids(n))}" for n in self.degrees())
        return f"Complex({{{counts}}})"


@dataclass(frozen=True)
class Violation:
    """One defect found by validate."""

    # duplicate-id | negative-degree | missing-face | dangling-face |
    # extra-face | identity | unlisted-cell
    kind: str
    cell: Optional[CellRef]
    message: str
    indices: Optional[tuple[int, ...]] = None

    def __str__(self):
        where = f" at {self.cell.id!r} (degree {self.cell.degree})" if self.cell else ""
        return f"{self.kind}{where}: {self.message}"


def validate(P: Complex) -> list[Violation]:
    """Check a raw complex and report every defect (empty report = valid).

    Reports duplicate ids, cells of negative degree, missing or dangling
    face entries, entries at no face position (i, k), 1 <= i <= n,
    k in {0, 1}, of their cell, every violated cubical identity with
    its (i, j, k, l) indices, and every nonempty face table given for a
    cell that is not listed.
    """
    report: list[Violation] = []
    for n in P.degrees():
        seen: set[str] = set()
        for cid in P.cell_ids(n):
            if cid == "" and n > 0:
                report.append(Violation("duplicate-id", CellRef(n, cid), "empty cell id"))
            if cid in seen:
                report.append(
                    Violation("duplicate-id", CellRef(n, cid), f"id {cid!r} repeated in degree {n}")
                )
            seen.add(cid)
    return report + _face_report(P)


def _face_report(P: Complex) -> list[Violation]:
    """The cells of negative degree, the missing, dangling and extra face
    entries, then the violated cubical identities, of every degree, then
    the face tables of unlisted cells: all of :func:`validate` but
    duplicate ids.
    An identity is checked only where its four face entries resolve. If
    the report is empty, P keeps the coface tables filled on the way, so
    they are built, and the face tables checked, once per complex."""
    report: list[Violation] = []
    resolved: dict[tuple[int, str], dict[tuple[int, int], str]] = {}
    cofaces: tuple[dict, dict, dict] = ({}, {}, {})
    for n in P.degrees():
        if n < 0:
            for cid in sorted(P._cell_sets[n]):
                message = f"degree {n} is negative"
                report.append(Violation("negative-degree", CellRef(n, cid), message))
            continue
        if n == 0:  # a vertex has no face positions
            for cid in sorted(c for c in P._cell_sets[0] if P._faces.get((0, c))):
                report += _extra_entries(0, cid, P._faces[(0, cid)])
            continue
        below = P._cell_sets.get(n - 1, frozenset())
        for cid in sorted(P._cell_sets[n]):
            table = P._faces.get((n, cid), {})
            faces = resolved[(n, cid)] = {}
            missing = 0
            for i in range(1, n + 1):
                for k in (0, 1):
                    fid = table.get((i, k))
                    if fid is None:
                        missing += 1
                        message = f"no entry for d{i}_{k}"
                        report.append(Violation("missing-face", CellRef(n, cid), message, (i, k)))
                    elif fid not in below:
                        message = f"d{i}_{k} = {fid!r} is not a cell of degree {n - 1}"
                        report.append(Violation("dangling-face", CellRef(n, cid), message, (i, k)))
                    else:
                        faces[(i, k)] = fid
                        if n <= 2:
                            ids = cofaces[k if n == 1 else 2].setdefault(fid, [])
                            if ids[-1:] != [cid]:
                                ids.append(cid)
            if len(table) + missing > 2 * n:  # an entry at no face position
                report += _extra_entries(n, cid, table)
    for (n, cid), faces in resolved.items():
        for i, j in itertools.combinations(range(1, n + 1), 2):
            for k in (0, 1):
                for l in (0, 1):
                    if (j, l) not in faces or (i, k) not in faces:
                        continue  # already reported
                    left = resolved[(n - 1, faces[(j, l)])].get((i, k))
                    right = resolved[(n - 1, faces[(i, k)])].get((j - 1, l))
                    if left is None or right is None:
                        continue  # defect in a face, already reported
                    if left != right:
                        message = (
                            f"d{i}_{k} d{j}_{l} = {left!r} but d{j - 1}_{l} d{i}_{k} = {right!r}"
                        )
                        report.append(Violation("identity", CellRef(n, cid), message, (i, j, k, l)))
    stray = P._faces.keys() - resolved.keys()  # the tables of vertices and of unlisted cells
    for n, cid in sorted(key for key in stray if P._faces[key] and not P.has(CellRef(*key))):
        message = f"face table given, but {cid!r} is not listed in degree {n}"
        report.append(Violation("unlisted-cell", CellRef(n, cid), message))
    if not report and P._cofaces is None:
        P._cofaces = cofaces
    return report


def _extra_entries(n: int, cid: str, table) -> list[Violation]:
    """The entries of a degree-n cell's face table at no face position."""
    positions = {(i, k) for i in range(1, n + 1) for k in (0, 1)}
    return [
        Violation("extra-face", CellRef(n, cid), f"entry {key!r} is not a face position")
        for key in table
        if key not in positions
    ]


def is_valid(P: Complex) -> bool:
    return not validate(P)


# -- the standard n-cube ---------------------------------------------------


def standard_cube(n: int) -> Complex:
    """The precubical n-cube: cells are words over {0, 1, *}, a degree-r
    cell has exactly r stars, and d_i^k substitutes k for the i-th star."""
    if n < 0:
        raise OutOfRange(f"a cube has degree n >= 0, not {n}")
    cells: dict[int, list[str]] = {}
    faces: dict[tuple[int, str], dict[tuple[int, int], str]] = {}
    for word in itertools.product("01*", repeat=n):
        w = "".join(word)
        r = w.count("*")
        cells.setdefault(r, []).append(w)
        if r > 0:
            table = {}
            star_positions = [p for p, ch in enumerate(w) if ch == "*"]
            for i, pos in enumerate(star_positions, start=1):
                for k in (0, 1):
                    table[(i, k)] = w[:pos] + str(k) + w[pos + 1 :]
            faces[(r, w)] = table
    if n == 0:
        cells = {0: [""]}
    return Complex(cells, faces)


# -- regularity ------------------------------------------------------------


def is_regular(P: Complex, x: CellRef) -> bool:
    """True iff the induced cube morphism of x is injective.

    The images of the degree-(r-1) cells of the cube are the faces of the
    images of its degree-r cells, so x is regular iff every level r-1
    holds C(n, r-1) * 2^(n-r+1) distinct cells, as many as the n-cube
    has. Each level is built from the values of the stored face tables of
    the level above (exact once the face report has passed), and the test
    returns False at the first level that falls short.
    Raises ValidationFailed, as the coface tables do, if P is invalid.
    """
    if not P.has(x):
        raise UnknownCell(f"no cell {x.id!r} of degree {x.degree}")
    P.coface_tables()  # checks that every face table holds exactly its faces
    n, faces = x.degree, P._faces
    level = (x.id,)
    for r in range(n, 0, -1):
        level = {fid for cid in level for fid in faces[(r, cid)].values()}
        if len(level) < comb(n, r - 1) << (n - r + 1):
            return False
    return True


# -- duality functors ------------------------------------------------------


def opposite(P: Complex) -> Complex:
    """Reverse direction: face entry (i, k) becomes the old (i, 1-k)."""
    return _moved_faces(P, lambda n, i, k: (i, 1 - k))


def transpose(P: Complex) -> Complex:
    """Swap coordinate roles: on degree-r cells, entry (i, k) becomes the
    old (r+1-i, k). Degree-1 tables are unchanged."""
    return _moved_faces(P, lambda n, i, k: (n + 1 - i, k))


def _moved_faces(P: Complex, key) -> Complex:
    """P with each face entry (i, k) of a degree-n cell moved to key(n, i, k)."""
    faces = {
        (n, cid): {key(n, i, k): fid for (i, k), fid in P.faces_of(n, cid).items()}
        for n in P.degrees()
        if n > 0
        for cid in P.cell_ids(n)
    }
    return Complex({n: P.cell_ids(n) for n in P.degrees()}, faces, P.coords_table())


# -- extremal vertices -----------------------------------------------------


def minimal_vertices(P: Complex) -> set[CellRef]:
    """Vertices with no incoming edge (no edge y with d_1^1 y = v)."""
    ends = P.coface_tables()[1]
    return {CellRef(0, v) for v in P.cell_ids(0) if v not in ends}


def maximal_vertices(P: Complex) -> set[CellRef]:
    """Vertices with no outgoing edge (no edge y with d_1^0 y = v)."""
    starts = P.coface_tables()[0]
    return {CellRef(0, v) for v in P.cell_ids(0) if v not in starts}


def extremal(P: Complex) -> set[CellRef]:
    return minimal_vertices(P) | maximal_vertices(P)


# -- isomorphism -----------------------------------------------------------


def are_isomorphic(P: Complex, Q: Complex) -> Optional[dict[CellRef, CellRef]]:
    """A degree-preserving bijection commuting with all faces, or None.

    Mapping a cell forces the images of its faces and, at each face
    position where the cell has exactly one coface, the image of that
    coface. The search branches only when nothing is forced: the first
    unmapped cell of P in (degree descending, id) order tries, in id
    order, the cells of Q with its degree and its number of cofaces at
    each position. Raises ValidationFailed, as the coface tables do, if
    either complex is invalid.
    """
    star_p, star_q = _stars(P), _stars(Q)
    if any(P.size(n) != Q.size(n) for n in {*P.degrees(), *Q.degrees()}):
        return None
    alike: dict[tuple, list[tuple[int, str]]] = {}
    for q, (_, _, sig) in sorted(star_q.items()):
        alike.setdefault((q[0], sig), []).append(q)
    order = sorted(star_p, key=lambda c: (-c[0], c[1]))
    image: dict[tuple[int, str], tuple[int, str]] = {}
    used: set[tuple[int, str]] = set()
    trail: list[tuple[int, str]] = []  # the cells of P mapped, in order
    stack: list = []  # per branch: its place in order, untried cells of Q, len(trail)
    pos = 0
    while True:
        while pos < len(order) and order[pos] in image:
            pos += 1
        if pos == len(order):
            return {CellRef(*p): CellRef(*q) for p, q in image.items()}
        p = order[pos]
        stack.append((pos, iter(alike.get((p[0], star_p[p][2]), ())), len(trail)))
        while stack:  # the next candidate of the innermost branch left
            pos, untried, mark = stack[-1]
            q = next(untried, None)
            while len(trail) > mark:
                used.discard(image.pop(trail.pop()))
            if q is None:
                stack.pop()
            elif _force(order[pos], q, star_p, star_q, image, used, trail):
                break
        else:
            return None
        pos += 1


def _stars(P: Complex) -> dict[tuple[int, str], tuple[tuple, tuple, tuple[int, ...]]]:
    """Per cell (degree, id): its faces by face position (i, k), in order;
    the cofaces alone at their position, in position order; and the number
    of cofaces at each position. Cells of degree 2 and up get no cofaces."""
    starts, ends, on_edge = P.coface_tables()
    stars = {}
    for n in P.degrees():
        keys = [(i, k) for i in range(1, n + 1) for k in (0, 1)]
        for c in P._cell_sets[n]:
            ups = ()
            if n == 0:
                ups = (starts.get(c, ()), ends.get(c, ()))
            elif n == 1:
                ups = ([], [], [], [])
                for s in on_edge.get(c, ()):
                    faces = P.faces_of(2, s)
                    for at, key in zip(ups, ((1, 0), (1, 1), (2, 0), (2, 1))):
                        if faces[key] == c:
                            at.append(s)
            faces = P.faces_of(n, c)
            stars[(n, c)] = (
                tuple([(n - 1, faces[key]) for key in keys]),
                tuple([(n + 1, at[0]) for at in ups if len(at) == 1]),
                tuple(map(len, ups)),
            )
    return stars


def _force(p, q, star_p, star_q, image, used, trail) -> bool:
    """Map cell p of P to q, then every cell that forces; False on a clash."""
    work = [(p, q)]
    while work:
        a, b = work.pop()
        if a in image:
            if image[a] != b:
                return False
            continue
        faces_a, alone_a, sig = star_p[a]
        faces_b, alone_b, sig_b = star_q[b]
        if b in used or sig != sig_b:
            return False
        image[a] = b
        used.add(b)
        trail.append(a)
        work += zip(faces_a, faces_b)
        work += zip(alone_a, alone_b)  # equal signatures: the same positions
    return True


def euler_characteristic(P: Complex) -> int:
    return sum((-1) ** n * P.size(n) for n in P.degrees())
