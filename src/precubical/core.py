"""Precubical sets as explicit face tables.

A complex is a finite graded set of cells together with boundary operators
d_i^k sending a degree-n cell to a degree-(n-1) cell (1 <= i <= n,
k in {0, 1}) subject to the cubical identities
d_i^k d_j^l = d_{j-1}^l d_i^k for i < j.

Complexes are immutable after construction, as any caller sees them, and
all public operations here are pure. The library's reduction chains
patch one private working copy in place, step by step, from the ids
their certificates keep: greedy and replay copy their input once, and
recipe generation adopts the grid it has just built. No caller ever
holds a complex that is patched, and the working copy owns the coface
lists it edits. Cell identity is the pair (degree, id string);
coordinates attached by generators are layout metadata only and are
never consulted by any algorithm.
"""

from __future__ import annotations

import bisect
import itertools
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from math import comb
from operator import itemgetter
from typing import Optional

from .errors import DimensionUnsupported, OutOfRange, UnknownCell, ValidationFailed


@dataclass(frozen=True, order=True, init=False)
class CellRef:
    """A cell named by degree and an id unique within that degree."""

    degree: int
    id: str

    def __init__(self, degree: int, id: str):
        # into __dict__, past the frozen __setattr__ the generated __init__ calls
        fields = self.__dict__
        fields["degree"] = degree
        fields["id"] = id

    def __repr__(self):
        return f"CellRef({self.degree}, {self.id!r})"


class Complex:
    """A finite precubical set given by explicit face tables.

    `cells` maps each degree to a collection of ids, `faces` each (degree,
    id) to a mapping (i, k) -> face id of degree one less, and `coords`
    each (degree, id) to a position. The constructor copies the tables and
    judges each entry alone. OutOfRange, naming the degree or cell, refuses
    a degree that is not an exact int >= 0; ids given as a str or bytes; a cell
    id, face id or id in a `faces` or `coords` key that is not one pcsv1
    token, a nonempty str without whitespace; a face key that is not a
    face position of its cell, exact ints 1 <= i <= n and k in {0, 1};
    and a position that is not one or more exact ints, stored as a tuple.
    :func:`validate` judges how entries relate: repeats, missing and
    dangling faces, identities and unlisted cells. Ids stay as given.

    Internal code reads ids through :meth:`faces_of` and
    :meth:`coface_tables`; :class:`CellRef` is the type of the public API.
    The coface tables are built once the check of the face tables comes
    back clean, in :func:`validate` or on first query, not here; a
    working copy patches them.

    A complex never changes once a caller holds it. Only the library's
    private working copies are changed, by :meth:`_patch`: a copy made by
    :meth:`_copy`, or a complex the library has just built and not handed
    out, taken over by :meth:`_adopt`. A working copy owns its cell sets
    and coface lists, and a patch edits them in place; a copy shares its
    face-table dicts with its source, so a patch replaces one to redirect
    it. A patch only removes cells, never adds one, and logs the (degree,
    id) of each cell it removes; a working copy starts with an empty log.
    """

    def __init__(
        self,
        cells: Mapping[int, Iterable[str]],
        faces: Mapping[tuple[int, str], Mapping[tuple[int, int], str]] = (),
        coords: Mapping[tuple[int, str], tuple[int, ...]] = (),
    ):
        if not isinstance(cells, Mapping):
            raise OutOfRange(f"cells must map each degree to a collection of ids, not {cells!r}")
        owned = {}
        for n, ids in cells.items():
            if not (type(n) is int and n >= 0 and isinstance(ids, Iterable)
                    and not isinstance(ids, str | bytes)):
                raise OutOfRange(f"degree {n!r}: cells must map ints >= 0 to ids, not {ids!r}")
            owned[n] = tuple(ids)
            # an id is one pcsv1 token: a nonempty str without whitespace
            for cid in (c for c in owned[n] if not (isinstance(c, str) and c.split() == [c])):
                raise OutOfRange(f"degree {n}: id {cid!r} is not a nonempty str without whitespace")
        faces, coords = faces or {}, coords or {}
        for name, table, kind, what in (("faces", faces, Mapping, "face table"),
                                        ("coords", coords, Iterable, "position")):
            if not isinstance(table, Mapping):
                raise OutOfRange(f"{name} must map each (degree, id) to its {what}, not {table!r}")
            for key, value in table.items():
                if not (isinstance(key, tuple) and len(key) == 2 and type(key[0]) is int
                        and key[0] >= 0 and isinstance(key[1], str) and key[1].split() == [key[1]]):
                    raise OutOfRange(f"{name} key {key!r} is not a (degree, id) pair, degree >= 0")
                if not isinstance(value, kind):
                    raise OutOfRange(f"cell {key!r}: {value!r} is not a {what}")
        faces = {key: dict(table) for key, table in faces.items()}
        # exact ints at a face position, so none on a vertex, and (True, 0) is not (1, 0)
        for key, ik in ((key, ik) for key, table in faces.items() for ik in table if not (
                isinstance(ik, tuple) and len(ik) == 2 and type(ik[0]) is type(ik[1]) is int
                and 1 <= ik[0] <= key[0] and ik[1] in (0, 1))):
            raise OutOfRange(f"cell {key!r}: face key {ik!r} is not an (i, k) pair of ints, "
                             f"1 <= i <= {key[0]} and k in (0, 1)")
        for key, fid in ((key, f) for key, table in faces.items() for f in table.values()
                         if not (isinstance(f, str) and f.split() == [f])):
            raise OutOfRange(f"cell {key!r}: face id {fid!r} is not a nonempty str "
                             "without whitespace")
        coords = {key: tuple(pos) for key, pos in coords.items()}
        for key in (key for key, pos in coords.items() if set(map(type, pos)) != {int}):
            raise OutOfRange(f"cell {key!r}: position {coords[key]!r} is not one or more ints")
        self._own(owned, faces, coords)

    @classmethod
    def _owning(cls, cells, faces, coords) -> Complex:
        """A complex over tables the library has just built and keeps no
        other reference to: int degrees, token ids, face-table dicts and
        position tuples, stored as they are instead of copied."""
        P = cls.__new__(cls)
        P._own(cells, faces, coords)
        return P

    def _own(self, cells, faces, coords):
        self._cells: dict[int, tuple[str, ...]] = {n: tuple(ids) for n, ids in cells.items() if ids}
        self._cell_sets: dict[int, set[str]] = {n: set(ids) for n, ids in self._cells.items()}
        self._faces: dict[tuple[int, str], dict[tuple[int, int], str]] = faces
        self._coords: dict[tuple[int, str], tuple[int, ...]] = coords
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
        """The ids in the order given to the constructor, less any a patch removed."""
        degree = _degree(degree)
        ids, live = self._cells.get(degree, ()), self._cell_sets.get(degree, ())
        return ids if len(ids) == len(live) else tuple(c for c in ids if c in live)

    def cells(self, degree: int) -> list[CellRef]:
        """The cells of a degree, sorted by id."""
        return [CellRef(degree, i) for i in sorted(self._cell_sets.get(_degree(degree), ()))]

    def cell_set(self) -> frozenset[CellRef]:
        """Every cell, in a new set: O(cells)."""
        return frozenset(CellRef(n, cid) for n, ids in self._cell_sets.items() for cid in ids)

    def _cells_when(self, logged: int) -> frozenset[CellRef]:
        """The cells this complex had when its log held `logged` entries: a
        patch only removes cells, so these are the cells now plus those
        logged since. O(cells)."""
        return self.cell_set().union(itertools.starmap(CellRef, self._log[logged:]))

    def has(self, cell: CellRef) -> bool:
        return _has(self, cell.degree, cell.id)

    def size(self, degree: int) -> int:
        return len(self._cell_sets.get(_degree(degree), ()))

    def faces_of(self, degree: int, cid: str) -> dict[tuple[int, int], str]:
        """The stored face table (i, k) -> face id of a cell (not a copy)."""
        return self._faces.get((degree, cid), {})

    def _known(self, cell: CellRef, degree: Optional[int] = None) -> CellRef:
        """The cell, or UnknownCell if this complex lacks it or, given
        `degree`, if it is not of that degree: the one check of a reader's
        `CellRef`."""
        if not _has(self, cell.degree, cell.id):
            raise UnknownCell(f"no cell {cell.id!r} of degree {cell.degree}")
        if degree is not None and cell.degree != degree:
            raise UnknownCell(f"cell {cell.id!r} has degree {cell.degree}, not {degree}")
        return cell

    def face(self, cell: CellRef, i: int, k: int) -> CellRef:
        if not (type(i) is type(k) is int):
            raise OutOfRange(f"i and k must be ints, not {i!r} and {k!r}")
        fid = self.faces_of(self._known(cell).degree, cell.id).get((i, k))
        if fid is None:
            raise UnknownCell(
                f"cell {cell.id!r} of degree {cell.degree} has no face d{i}_{k}"
            )
        return CellRef(cell.degree - 1, fid)

    def face_table(self, cell: CellRef) -> dict[tuple[int, int], str]:
        return dict(self.faces_of(self._known(cell).degree, cell.id))

    def coords(self, cell: CellRef) -> Optional[tuple[int, ...]]:
        return self._coords.get((self._known(cell).degree, cell.id))

    def coords_table(self) -> dict[tuple[int, str], tuple[int, ...]]:
        return dict(self._coords)

    # -- coface tables -----------------------------------------------------

    def coface_tables(self) -> tuple[dict, dict, dict]:
        """The stored coface tables (edges by d_1^0, edges by d_1^1, squares by
        face), each id -> nonempty sorted id list, built unless they exist.
        They are built only after :func:`validate`'s report comes back
        empty; otherwise ValidationFailed carries that report."""
        if self._cofaces is None:
            report = validate(self)
            if report:
                raise ValidationFailed(report)
        return self._cofaces

    def edges_at(self, v: CellRef, k: Optional[int] = None) -> list[CellRef]:
        """The edges e with d_1^k e = v, or with v at either end if k is
        None, sorted by id. Any other k raises OutOfRange, and a cell that
        is not a vertex of this complex UnknownCell."""
        if k is not None and not (type(k) is int and k in (0, 1)):
            raise OutOfRange(f"k must be None, 0 or 1, not {k!r}")
        cofaces = self.coface_tables()
        vid = self._known(v, 0).id
        ids = sorted(_edges_at(cofaces, vid)) if k is None else cofaces[k].get(vid, ())
        return [CellRef(1, e) for e in ids]

    def reduced(
        self,
        removed: Iterable[CellRef],
        redirected: Mapping[tuple[CellRef, int, int], CellRef] = (),
    ) -> Complex:
        """This complex without the cells `removed`, with each face entry
        (edge, 1, k) of `redirected` but those of removed edges pointing at
        its target vertex instead. This complex is left as it is; the result
        is a patched working copy, refused exactly when :func:`validate`
        reports it (OutOfRange with that report), at the cost of one face
        report. Before that: DimensionUnsupported above dimension 2,
        ValidationFailed if this complex is invalid, UnknownCell for a cell
        it lacks, OutOfRange for a redirect not of an edge end to a vertex.
        """
        removed = tuple(removed)
        # checked as pairs, before a dict hashes a key that names no cell
        moves = tuple(redirected.items() if isinstance(redirected, Mapping) else redirected)
        _require_dimension_2(self, "reduced")
        Q = self._copy()
        for cell in (*removed, *(e for (e, _, _), _ in moves), *(v for _, v in moves)):
            self._known(cell)
        for (e, i, k), v in moves:  # exact ints, as in `face`: 1.0 and True are refused
            if not (type(i) is type(k) is int and (e.degree, i, v.degree) == (1, 1, 0)
                    and k in (0, 1)):
                raise OutOfRange(f"{(e, i, k)!r} -> {v!r} does not move an edge end to a vertex")
        gone = {(c.degree, c.id) for c in removed}
        Q._patch(gone, [(e.id, 1, k, v.id) for (e, _, k), v in dict(moves).items()
                        if (1, e.id) not in gone])
        if report := validate(Q):
            raise OutOfRange("the step leaves an invalid complex: " + "; ".join(map(str, report)))
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

    def _adopt(self) -> Complex:
        """This complex as a working copy, for one the library has just
        built valid by construction and not handed to any caller: its
        coface tables are built with no face report, and :meth:`_patch`
        may then edit it in place."""
        self._cofaces = _cofaces_of(self)
        return self

    def _patch(self, removed, redirected):
        """Remove the cells `removed`, (degree, id) pairs, each the key of
        its tables, and move the edge ends `redirected`, (edge, 1, k,
        vertex) ids, in place: a holding certificate's step, or any on a
        throwaway copy that :meth:`reduced` checks afterwards. The cost is
        what the step touches. A redirect replaces the face-table dict,
        which may be shared, never mutating it. Each cell removed is
        logged: the cells before are those after plus the new log."""
        faces, coords, tables, cell_sets = self._faces, self._coords, self._cofaces, self._cell_sets
        on_edge = tables[2]
        for key in removed:
            n, cid = key
            live = cell_sets[n]
            live.remove(cid)
            if not live:
                del cell_sets[n]
            coords.pop(key, None)
            if not n:
                continue  # a vertex has no face entries to take out
            for (_, k), f in faces.pop(key).items():
                table = tables[k] if n == 1 else on_edge
                ids = table.get(f, ())
                if cid in ids:  # gone already if a square has f at two positions
                    if len(ids) == 1:
                        del table[f]
                    else:
                        ids.remove(cid)
        for e, _, k, v in redirected:
            table, ends = faces[(1, e)], tables[k]
            old = table[(1, k)]
            ids = ends[old]
            if len(ids) == 1:
                del ends[old]
            else:
                ids.remove(e)
            bisect.insort(ends.setdefault(v, []), e)
            faces[(1, e)] = {**table, (1, k): v}
        self._log += removed

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
        counts = ", ".join(f"{n}: {self.size(n)}" for n in self.degrees())
        return f"Complex({{{counts}}})"


@dataclass(frozen=True)
class Violation:
    """One defect found by validate."""

    # duplicate-id | missing-face | dangling-face | identity | unlisted-cell
    kind: str
    cell: Optional[CellRef]
    message: str
    indices: Optional[tuple[int, ...]] = None

    def __str__(self):
        where = f" at {self.cell.id!r} (degree {self.cell.degree})" if self.cell else ""
        return f"{self.kind}{where}: {self.message}"


def validate(P: Complex) -> list[Violation]:
    """Check a raw complex and report every defect (empty report = valid).

    The constructor has judged each entry alone, ids included; this
    reports how they relate, in this order: repeated ids, then missing or
    dangling face entries, degree by degree, then every violated cubical
    identity with its (i, j, k, l) indices, then every nonempty face table
    of an unlisted cell, each sorted by id. An identity is checked only
    where its four face entries resolve. The coface tables refuse exactly
    what this reports: if the report is empty and P has no coface tables
    yet, they are built afterwards from the checked face tables, so an
    invalid complex builds none, and a valid one is checked and built once.
    """
    report: list[Violation] = []
    for n in P.degrees():
        ids = P.cell_ids(n)
        if len(ids) == P.size(n):  # no id repeats: the live ids are a set
            continue
        seen: set[str] = set()
        for cid in ids:
            if cid in seen:
                report.append(
                    Violation("duplicate-id", CellRef(n, cid), f"id {cid!r} repeated in degree {n}")
                )
            seen.add(cid)
    resolved: dict[tuple[int, str], dict[tuple[int, int], str]] = {}
    for n in P.degrees():
        below = P._cell_sets.get(n - 1, frozenset())
        positions = [(i, k) for i in range(1, n + 1) for k in (0, 1)]  # none for a vertex
        for cid in sorted(P._cell_sets[n]):
            table = P._faces.get((n, cid), {})  # its keys are positions, as the constructor checks
            if len(table) == len(positions) and below.issuperset(table.values()):
                resolved[(n, cid)] = table  # clean: every entry resolves
                continue
            faces = resolved[(n, cid)] = {}
            for i, k in positions:
                fid = table.get((i, k))
                if fid is None:
                    message = f"no entry for d{i}_{k}"
                    report.append(Violation("missing-face", CellRef(n, cid), message, (i, k)))
                elif fid not in below:
                    message = f"d{i}_{k} = {fid!r} is not a cell of degree {n - 1}"
                    report.append(Violation("dangling-face", CellRef(n, cid), message, (i, k)))
                else:
                    faces[(i, k)] = fid
    # past the vertices and edges, which come first: only degree >= 2 has a pair i < j
    for (n, cid), faces in itertools.islice(resolved.items(), P.size(0) + P.size(1), None):
        if n == 2 and len(faces) == 4:  # the four corners meet: d1_k d2_l = d1_l d1_k
            a, b = resolved[(1, faces[(1, 0)])], resolved[(1, faces[(1, 1)])]
            c, d = resolved[(1, faces[(2, 0)])], resolved[(1, faces[(2, 1)])]
            if (c.get((1, 0)) == a.get((1, 0)) and c.get((1, 1)) == b.get((1, 0))
                    and d.get((1, 0)) == a.get((1, 1)) and d.get((1, 1)) == b.get((1, 1))):
                continue
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
    stray = P._faces.keys() - resolved.keys()  # the tables of unlisted cells
    unlisted = (key for key in stray if P._faces[key] and not _has(P, *key))
    for n, cid in sorted(unlisted):
        message = f"face table given, but {cid!r} is not listed in degree {n}"
        report.append(Violation("unlisted-cell", CellRef(n, cid), message))
    if not report and P._cofaces is None:
        P._cofaces = _cofaces_of(P)
    return report


def _cofaces_of(P: Complex) -> tuple[dict, dict, dict]:
    """The coface tables (edges by d_1^0, edges by d_1^1, squares by face)
    from the stored face tables of the listed edges and squares, each face
    id -> nonempty sorted id list with no repeats. P must be valid."""
    starts: dict[str, list[str]] = {}
    ends: dict[str, list[str]] = {}
    on_edge: dict[str, list[str]] = {}
    faces = P._faces
    for e in sorted(P._cell_sets.get(1, ())):
        table = faces[(1, e)]
        starts.setdefault(table[(1, 0)], []).append(e)
        ends.setdefault(table[(1, 1)], []).append(e)
    for s in sorted(P._cell_sets.get(2, ())):
        for fid in faces[(2, s)].values():
            ids = on_edge.setdefault(fid, [])
            if not ids or ids[-1] != s:  # a square may have one edge at two positions
                ids.append(s)
    return starts, ends, on_edge


def _edges_at(cofaces, v: str) -> set[str]:
    """The ids of the edges with v at either end, from the coface tables."""
    return {*cofaces[0].get(v, ()), *cofaces[1].get(v, ())}


def is_valid(P: Complex) -> bool:
    return not validate(P)


def _has(P: Complex, n: int, cid) -> bool:
    """Whether P has the degree-n cell `cid`: False unless n is an exact
    int (True and 1.0 would read as 1) and False for an unhashable id."""
    try:
        return type(n) is int and cid in P._cell_sets.get(n, ())
    except TypeError:
        return False


def _degree(n) -> int:
    """n, or OutOfRange unless it is an exact int: the degree a reader takes."""
    if type(n) is not int:  # exact: True would read as 1, and a subclass finds no degree
        raise OutOfRange(f"a degree is an int, not {n!r}")
    return n


_LOW_DEGREES = frozenset((0, 1, 2))  # the degrees a complex of dimension <= 2 may have


def _require_dimension_2(P: Complex, what: str):
    """Raise DimensionUnsupported if P has dimension above 2."""
    if not _LOW_DEGREES.issuperset(P._cell_sets):
        raise DimensionUnsupported(f"{what} works in dimension <= 2, not {P.dimension}")


# -- the standard n-cube ---------------------------------------------------


def standard_cube(n: int) -> Complex:
    """The precubical n-cube: cells are words over {0, 1, *}, a degree-r
    cell has exactly r stars, and d_i^k substitutes k for the i-th star."""
    if not (type(n) is int and n >= 0):
        raise OutOfRange(f"a cube has an int degree n >= 0, not {n!r}")
    cells: dict[int, list[str]] = {}
    faces: dict[tuple[int, str], dict[tuple[int, int], str]] = {}
    for word in itertools.product("01*", repeat=n):
        w = "".join(word) or "()"  # the 0-cube's vertex, the empty word, as one token
        r = w.count("*")
        cells.setdefault(r, []).append(w)
        if r > 0:
            table = {}
            star_positions = [p for p, ch in enumerate(w) if ch == "*"]
            for i, pos in enumerate(star_positions, start=1):
                for k in (0, 1):
                    table[(i, k)] = w[:pos] + str(k) + w[pos + 1 :]
            faces[(r, w)] = table
    return Complex._owning(cells, faces, {})


# -- regularity ------------------------------------------------------------


def is_regular(P: Complex, x: CellRef) -> bool:
    """True iff the induced cube morphism of x is injective: for an edge,
    iff its ends differ; for a square, iff its four corners (the ends of
    its d_1^0 and d_1^1 edges, read by position) differ, since its edges
    run p -> q, r -> w, p -> r and q -> w. Above that, the images of the
    cube's degree-(r-1) cells are the faces of the images of its degree-r
    cells, so x is regular iff each level r-1, built from the level above,
    holds C(n, r-1) * 2^(n-r+1) distinct cells, as the n-cube does; the
    loop stops at the first that falls short. All read the stored face
    tables, exact once the face report has passed. Raises UnknownCell for
    a cell P lacks and ValidationFailed, as the coface tables do, if P is
    invalid.
    """
    n, cid, faces = P._known(x).degree, x.id, P._faces
    if P._cofaces is None:
        P.coface_tables()  # checks that every face table holds exactly its faces
    if n == 1:
        start, end = faces[(1, cid)].values()
        return start != end
    if n == 2:
        table = faces[(2, cid)]
        below, above = faces[(1, table[(1, 0)])], faces[(1, table[(1, 1)])]
        return len({below[(1, 0)], below[(1, 1)], above[(1, 0)], above[(1, 1)]}) == 4
    level = (cid,)
    for r in range(n, 0, -1):
        level = {fid for c in level for fid in faces[(r, c)].values()}
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
    return Complex._owning({n: P.cell_ids(n) for n in P.degrees()}, faces, P.coords_table())


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

    Every cell has a class, which any isomorphism keeps: its degree, its
    number of cofaces at each face position, and the classes of its faces,
    position by position. P and Q must have as many cells of each class;
    Q's classes are built a degree at a time, and the first degree whose
    class sizes differ from P's gives None before Q's higher degrees.
    Mapping a cell forces the images of its faces and, at each face
    position where the cell has exactly one coface, the image of that
    coface. The search branches only when nothing is forced: the unmapped
    cell of P whose class is smallest, ties broken by degree descending
    and then id, tries the cells of Q of its class in id order. Raises
    ValidationFailed, as the coface tables do, if either complex is invalid.
    """
    classes: dict[tuple, int] = {}  # signature -> class, shared by P and Q
    star_p, star_q, class_of = list(_stars(P, classes)), [], itemgetter(2)
    for stars_p, stars in itertools.zip_longest(star_p, _stars(Q, classes), fillvalue={}):
        if Counter(map(class_of, stars_p.values())) != Counter(map(class_of, stars.values())):
            return None
        star_q.append(stars)
    alike: dict[int, list[str]] = {}  # class -> the ids of Q's cells of it
    for stars in star_q:
        for q in sorted(stars):
            alike.setdefault(stars[q][2], []).append(q)
    order = sorted((len(alike[c]), -n, p) for n, stars in enumerate(star_p)
                   for p, (_, _, c) in stars.items())
    image: list[dict[str, str]] = [{} for _ in star_p]  # per degree
    used: list[set[str]] = [set() for _ in star_p]
    trail: list[tuple[int, str]] = []  # the cells of P mapped, in order
    stack: list = []  # per branch: its cell of P, its place in order, untried ids of Q, len(trail)
    pos = 0
    while True:
        while pos < len(order) and order[pos][2] in image[-order[pos][1]]:
            pos += 1
        if pos == len(order):
            return {CellRef(n, p): CellRef(n, q)
                    for n, pairs in enumerate(image) for p, q in pairs.items()}
        _, n, p = order[pos]
        stack.append((-n, p, pos, iter(alike[star_p[-n][p][2]]), len(trail)))
        while stack:  # the next candidate of the innermost branch left
            n, p, pos, untried, mark = stack[-1]
            q = next(untried, None)
            while len(trail) > mark:
                m, a = trail.pop()
                used[m].discard(image[m].pop(a))
            if q is None:
                stack.pop()
            elif _force(n, (p,), (q,), star_p, star_q, image, used, trail):
                break
        else:
            return None
        pos += 1


def _stars(P: Complex, classes: dict) -> Iterator[dict[str, tuple[tuple, tuple, int]]]:
    """Per degree, from 0, one at a time, per cell id: its face ids by face
    position (i, k), in order; the ids of its cofaces alone at their
    position, in position order; and its class, numbered in `classes` by
    signature: the degree, the number of cofaces at each position and the
    classes of the faces in position order. Cells of degree 2 and up get
    no cofaces. The coface tables are built before the first degree."""
    starts, ends, _ = P.coface_tables()
    faces = P._faces
    # edge -> per square position d1_0, d1_1, d2_0, d2_1: how many squares, the last seen
    seen: dict[str, list] = {}
    for s in P._cell_sets.get(2, ()):
        table = faces[(2, s)]
        for at, key in ((0, (1, 0)), (2, (1, 1)), (4, (2, 0)), (6, (2, 1))):
            record = seen.get(table[key])
            if record is None:
                record = seen[table[key]] = [0, None, 0, None, 0, None, 0, None]
            record[at] += 1
            record[at + 1] = s
    below: dict[str, int] = {}  # id -> class, in the degree below
    for n in P.degrees():  # ascending, so the faces of a cell have their classes
        here, stars = {}, {}
        if n == 0:
            for c in P._cell_sets[0]:
                out, into = starts.get(c, ()), ends.get(c, ())
                here[c] = cls = classes.setdefault((0, len(out), len(into)), len(classes))
                # out[:True] is the lone edge out, out[:False] none
                stars[c] = ((), (*out[:len(out) == 1], *into[:len(into) == 1]), cls)
        elif n == 1:
            for c in P._cell_sets[1]:
                table = faces[(1, c)]
                fids = table[(1, 0)], table[(1, 1)]
                m0, s0, m1, s1, m2, s2, m3, s3 = seen.get(c, (0, None) * 4)
                signature = (1, m0, m1, m2, m3, below[fids[0]], below[fids[1]])
                here[c] = cls = classes.setdefault(signature, len(classes))
                alone = ()
                if m0 == 1:
                    alone += (s0,)
                if m1 == 1:
                    alone += (s1,)
                if m2 == 1:
                    alone += (s2,)
                if m3 == 1:
                    alone += (s3,)
                stars[c] = (fids, alone, cls)
        else:
            by_position = itemgetter(*[(i, k) for i in range(1, n + 1) for k in (0, 1)])
            for c in P._cell_sets[n]:
                fids = by_position(faces[(n, c)])
                here[c] = cls = classes.setdefault((n, *map(below.get, fids)), len(classes))
                stars[c] = (fids, (), cls)
        below = here
        yield stars


def _force(n, ps, qs, star_p, star_q, image, used, trail) -> bool:
    """Map the degree-n cells ps of P to qs, position by position, then
    every cell that forces; False on a clash."""
    work = [(n, ps, qs)]
    while work:
        n, ps, qs = work.pop()
        mapped, taken, stars_p, stars_q = image[n], used[n], star_p[n], star_q[n]
        for a, b in zip(ps, qs):
            if a in mapped:
                if mapped[a] != b:
                    return False
                continue
            faces_a, alone_a, cls = stars_p[a]
            faces_b, alone_b, cls_b = stars_q[b]
            if b in taken or cls != cls_b:
                return False
            mapped[a] = b
            taken.add(b)
            trail.append((n, a))
            if faces_a:
                work.append((n - 1, faces_a, faces_b))
            if alone_a:  # equal classes: the same positions
                work.append((n + 1, alone_a, alone_b))
    return True


def euler_characteristic(P: Complex) -> int:
    return sum((-1) ** n * P.size(n) for n in P.degrees())
