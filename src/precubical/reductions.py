"""Directed-homotopy-preserving reductions of 2-dimensional complexes.

Three rewrite operations, each guarded by explicitly checked side
conditions and each returning a certificate recording the conditions,
the removed cells, any redirected boundary entries, and whether the
fundamental bipartite graph is guaranteed to be preserved:

- edge_collapse: removes an edge and one of its endpoints, redirecting
  the boundary of the edges that met the removed vertex;
- square_one_free: removes a square together with two of its boundary
  edges and the corner vertex between them;
- square_two_free: removes a square and one free boundary edge, keeping
  all vertices.

auto_reduce chains these, either following an explicit recipe or by a
deterministic greedy scan.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from itertools import starmap
from typing import Iterator, Optional

from . import core
from .core import CellRef, Complex, _edges_at
from .errors import (
    ConditionsFailed,
    GuaranteeLost,
    OutOfRange,
    RecipeStepFailed,
    UnknownCell,
    WrongDegree,
)

EDGE_COLLAPSE = "edge-collapse"
SQUARE_ONE_FREE = "square-one-free"
SQUARE_TWO_FREE = "square-two-free"


@dataclass(frozen=True)
class Condition:
    label: str
    holds: bool
    witnesses: tuple[CellRef, ...] = ()


_FIELDS = ("kind", "cell", "params", "conditions", "removed", "redirected", "y", "r_cells",
           "fbg_guaranteed")


@dataclass(frozen=True, init=False, eq=False, repr=False)
class ReductionCertificate:
    """What one check of a move found: the move (`kind`, `cell`,
    `params`), each condition with its witnesses, the cells the step
    removes, the face entries it redirects, Y, R and `fbg_guaranteed`.

    Certificates come from :func:`run`; the constructor is internal. A
    certificate is immutable and compares field by field. It keeps what
    the check found as ids and builds `conditions`, `removed`,
    `redirected`, `y` and `r_cells` on first read, so a check whose
    certificate is dropped builds none of them. R is a view: the checked
    complex, the length of its log of removed cells at check time, and
    the cells R leaves out besides the removed ones and Y. Reading it gives
    the cells of the complex at check time, less all those, at a cost of
    O(cells). Only a square-two-free certificate, which has an R, holds on
    to its complex.
    """

    kind: str
    cell: CellRef
    params: dict
    fbg_guaranteed: bool
    all_conditions_hold: bool

    def __init__(self, P, kind, cell, params, reg, found, removed, redirected, y, kept_out):
        holds = reg
        for _, _, witnesses in found:
            if witnesses:
                holds = False
                break
        # into __dict__, past the frozen __setattr__, as CellRef does
        fields = self.__dict__
        fields["kind"] = kind
        fields["cell"] = cell
        fields["params"] = params
        fields["fbg_guaranteed"] = kind == SQUARE_ONE_FREE or bool(y)
        fields["all_conditions_hold"] = holds
        fields["_reg"] = reg
        fields["_found"] = found
        fields["_removed"] = removed
        fields["_redirected"] = redirected
        fields["_y"] = y
        fields["_r"] = None if kept_out is None else (P, len(P._log), kept_out)

    @cached_property
    def conditions(self) -> tuple[Condition, ...]:
        return (Condition("reg", self._reg), *(
            Condition(label, not w, _cells(d, sorted(w))) for label, d, w in self._found
        ))

    @cached_property
    def removed(self) -> frozenset[CellRef]:
        return frozenset(starmap(CellRef, self._removed))

    @cached_property
    def redirected(self) -> dict:
        """(CellRef, i, k) -> CellRef, nonempty only for edge-collapse."""
        return {(CellRef(1, e), i, k): CellRef(0, v) for e, i, k, v in self._redirected}

    @cached_property
    def y(self) -> Optional[frozenset[CellRef]]:
        """None for square-one-free."""
        return None if self._y is None else frozenset(_cells(1, self._y))

    @cached_property
    def r_cells(self) -> Optional[frozenset[CellRef]]:
        """The subset R, only for square-two-free."""
        if self._r is None:
            return None
        P, logged, kept_out = self._r
        return P._cells_when(logged) - self.removed.union(starmap(CellRef, kept_out), self.y)

    def __eq__(self, other):
        if not isinstance(other, ReductionCertificate):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in _FIELDS)

    __hash__ = None

    def __repr__(self):
        return f"ReductionCertificate({', '.join(f'{f}={getattr(self, f)!r}' for f in _FIELDS)})"

    def condition(self, label: str) -> Condition:
        for c in self.conditions:
            if c.label == label:
                return c
        raise KeyError(label)


def _cells(degree: int, ids) -> tuple[CellRef, ...]:
    return tuple(CellRef(degree, c) for c in ids)


# Each move's own conditions, read on ids from P's face tables. Given P,
# its coface tables, the id x of the cell and the parameters a, b, a move
# returns its conditions after "reg" as (label, witness degree, witness
# ids) triples, each holding when it has no witness, then the removed
# cells as (degree, id) pairs, the redirected face entries as (edge, i, k,
# vertex) id quadruples, the edge ids of Y, and the (degree, id) pairs
# that R leaves out besides the removed cells and Y (None where the move
# has no Y or R). A move returns only values it owns, copying any coface
# list it keeps: the chain's working copy edits those after the check.


def _edge_collapse_conditions(P, cofaces, x, a, b):
    faces = P._faces[(1, x)]
    v = faces[(1, 1 - b)]  # the vertex that disappears
    w = faces[(1, b)]  # the vertex x collapses onto
    same_endpoint = cofaces[1 - b][v].copy()  # the edges y with d_1^{1-b} y = v, less x
    same_endpoint.remove(x)
    blocked = cofaces[2].keys() & _edges_at(cofaces, v)
    y = tuple(cofaces[b].get(v, ()))
    redirected = [(yy, 1, b, w) for yy in y]
    return (("i", 1, same_endpoint), ("ii", 1, blocked)), ((1, x), (0, v)), redirected, y, None


def _square_one_free_conditions(P, cofaces, x, a, b):
    faces = P._faces
    table = faces[(2, x)]
    e1, e2 = table[(1, 1 - b)], table[(2, b)]
    corner = faces[(1, e1)][(1, b)]  # equals d_1^{1-b} d_2^b x
    on_edge = cofaces[2]
    other = {*on_edge[e1], *on_edge[e2]}
    other.discard(x)
    extra = _edges_at(cofaces, corner)
    extra.difference_update((e1, e2))
    removed = ((2, x), (1, e1), (1, e2), (0, corner))
    return (("i", 2, other), ("ii", 1, extra)), removed, (), None, None


def _square_two_free_conditions(P, cofaces, x, a, b):
    faces = P._faces
    table = faces[(2, x)]
    e_keep, e_drop = table[(a, 1 - b)], table[(3 - a, b)]
    on_edge = cofaces[2]
    other = {*on_edge[e_keep], *on_edge[e_drop]}
    other.discard(x)
    v_keep = faces[(1, e_keep)][(1, b)]
    parallel = cofaces[b][v_keep].copy()
    parallel.remove(e_keep)
    v_drop = faces[(1, e_drop)][(1, 1 - b)]
    y = cofaces[1 - b][v_drop].copy()
    y.remove(e_drop)
    bad_y = on_edge.keys() & y
    conditions = (("i", 2, other), ("ii", 1, parallel), ("iii", 1, bad_y))
    return conditions, ((2, x), (1, e_drop)), (), y, ((0, v_drop), (1, e_keep))


# kind -> (degree of the reduced cell, the move's conditions)
_MOVES = {
    EDGE_COLLAPSE: (1, _edge_collapse_conditions),
    SQUARE_ONE_FREE: (2, _square_one_free_conditions),
    SQUARE_TWO_FREE: (2, _square_two_free_conditions),
}

# (kind, a, b) -> _MOVES[kind] for each valid move. A bool or float hashes
# as its int, so a lookup first tests that a and b are exact ints or None.
_VALID = {(kind, a, b): move for kind, move in _MOVES.items()
          for a in ((1, 2) if kind == SQUARE_TWO_FREE else (None,)) for b in (0, 1)}


def edge_collapse(
    P: Complex,
    cell_id: str,
    b: int,
    mode: str = "apply",
    allow_empty_y: bool = False,
) -> tuple[Optional[Complex], ReductionCertificate]:
    """Collapse the edge x onto its d_1^b endpoint, removing the vertex
    v = d_1^{1-b} x and redirecting every edge y with d_1^b y = v to end
    (resp. start) at d_1^b x instead."""
    return run(P, EDGE_COLLAPSE, cell_id, None, b, mode, allow_empty_y)


def square_one_free(
    P: Complex,
    cell_id: str,
    b: int,
    mode: str = "apply",
    allow_empty_y: bool = False,
) -> tuple[Optional[Complex], ReductionCertificate]:
    """Remove a square x together with the edges d_1^{1-b} x and d_2^b x
    and the corner vertex between them. Requires both edges to be free
    (in no other square) and the corner to meet no other edge."""
    return run(P, SQUARE_ONE_FREE, cell_id, None, b, mode, allow_empty_y)


def square_two_free(
    P: Complex,
    cell_id: str,
    a: int,
    b: int,
    mode: str = "apply",
    allow_empty_y: bool = False,
) -> tuple[Optional[Complex], ReductionCertificate]:
    """Remove a square x and its free edge d_{3-a}^b x. The edge
    d_a^{1-b} x survives and takes over the role of the removed one; the
    certificate records the subset R on which the homotopy is relative."""
    return run(P, SQUARE_TWO_FREE, cell_id, a, b, mode, allow_empty_y)


def check(P: Complex, kind: str, cell_id: str, a: Optional[int], b: int) -> ReductionCertificate:
    """Run one reduction in check mode and return its certificate. The
    check costs the star of the cell: the certificate's fields are built
    on first read, and its R is a view of P's cells at the check, whose
    read costs O(cells)."""
    _, cert = run(P, kind, cell_id, a, b, mode="check")
    return cert


def run(
    P: Complex,
    kind: str,
    cell_id: str,
    a: Optional[int],
    b: int,
    mode: str = "apply",
    allow_empty_y: bool = False,
) -> tuple[Optional[Complex], ReductionCertificate]:
    """Certify one reduction of P: check the parameters, that P has
    dimension <= 2 and that its face entries resolve, then the conditions
    on the cell. In check mode return (None, certificate); in apply mode
    raise ConditionsFailed or GuaranteeLost (unless allow_empty_y) or
    return a copy of P patched by the proved step, with the certificate.
    `a` is 1 or 2 for square-two-free and None for the other moves.

    The certificate keeps the facts the check found as ids and builds its
    `CellRef` fields (the condition witnesses, `removed`, `redirected`,
    `y` and `r_cells`) on first read. R is a view of the cells P has at
    check time: it stays exact while a working copy is patched after the
    check, and reading it costs O(cells). The `ReductionCertificate`
    constructor is internal: certificates come from here."""
    try:  # an unhashable kind names no move
        move = _VALID[kind, a, b] if type(b) is int and (a is None or type(a) is int) else None
    except (KeyError, TypeError):
        move = None
    if move is None:
        _check_params(kind, a, b)
    if mode not in ("apply", "check"):
        raise OutOfRange(f"mode must be 'apply' or 'check', not {mode!r}")
    core._require_dimension_2(P, "a reduction")
    cofaces = P._cofaces or P.coface_tables()
    degree, conditions_of = move
    x = CellRef(degree, cell_id)
    try:
        reg = core.is_regular(P, x)  # the one lookup of the cell
    except UnknownCell:
        for n in P.degrees():
            if core._has(P, n, cell_id):
                raise WrongDegree(f"cell {cell_id!r} has degree {n}, expected {degree}") from None
        raise
    params = {"b": b} if a is None else {"a": a, "b": b}
    cert = ReductionCertificate(P, kind, x, params, reg, *conditions_of(P, cofaces, cell_id, a, b))
    if mode == "check":
        return None, cert
    _require_applicable(cert, allow_empty_y)
    Q = P._copy()
    Q._patch(cert._removed, cert._redirected)
    return Q, cert


def _check_params(kind, a, b):
    """Raise OutOfRange unless (kind, a, b) names a reduction."""
    if not (isinstance(kind, str) and kind in _MOVES):
        raise OutOfRange(f"unknown reduction kind {kind!r}")
    # exact ints only: True == 1 and 2.0 == 2, but no recipe line holds them
    if not (type(b) is int and b in (0, 1)):
        raise OutOfRange(f"b must be 0 or 1, not {b!r}")
    if kind == SQUARE_TWO_FREE and not (type(a) is int and a in (1, 2)):
        raise OutOfRange(f"a must be 1 or 2, not {a!r}")
    if kind != SQUARE_TWO_FREE and a is not None:
        raise OutOfRange(f"{kind} takes only b, not a={a!r}")


def _require_applicable(cert: ReductionCertificate, allow_empty_y: bool = False):
    """Raise what apply mode raises on a certificate that may not be
    applied: ConditionsFailed, or GuaranteeLost unless allow_empty_y."""
    if not cert.all_conditions_hold:
        raise ConditionsFailed(cert)
    if not cert.fbg_guaranteed and not allow_empty_y:
        raise GuaranteeLost(cert)


@dataclass(frozen=True, init=False)
class Step:
    """One entry of a reduction recipe."""

    kind: str
    cell: str
    b: int
    a: Optional[int] = None

    def __init__(self, kind: str, cell: str, b: int, a: Optional[int] = None):
        fields = self.__dict__  # as in CellRef
        fields["kind"] = kind
        fields["cell"] = cell
        fields["b"] = b
        fields["a"] = a

    @classmethod
    def of(cls, cert: ReductionCertificate) -> Step:
        """The recipe step that replays the reduction `cert` certifies."""
        return cls(cert.kind, cert.cell.id, cert.params["b"], cert.params.get("a"))

    def __str__(self):
        if self.a is None:
            return f"{self.kind} {self.cell} {self.b}"
        return f"{self.kind} {self.cell} {self.a} {self.b}"


# Greedy scan order: square eliminations before edge collapses, matching
# the sequences used in worked reductions of grid-like complexes.
GREEDY_ATTEMPTS: tuple[tuple[str, Optional[int], int], ...] = (
    (SQUARE_ONE_FREE, None, 1),
    (SQUARE_ONE_FREE, None, 0),
    (SQUARE_TWO_FREE, 2, 0),
    (SQUARE_TWO_FREE, 1, 1),
    (SQUARE_TWO_FREE, 1, 0),
    (SQUARE_TWO_FREE, 2, 1),
    (EDGE_COLLAPSE, None, 0),
    (EDGE_COLLAPSE, None, 1),
)


def _schedule(P: Complex, rows, rank=None) -> Iterator[ReductionCertificate]:
    """Reduce the working copy P in place, yielding each certificate as it
    is applied: run it to the end. A caller that keeps only steps drops
    each certificate at once, so a long trail of them never builds up.

    A row is a tuple of attempt entries (kind, a, b) of one cell degree,
    which a (row, cell) pair tries in turn. The pairs are popped from one
    heap, least by row and cell id, or by `rank[cell id]` first if a rank
    is given. The least pair applies its first guaranteed entry; a pair
    whose cell is gone is dropped, and one that fails waits at its cell's
    vertices until a step wakes the pairs waiting at the vertices D of the
    reduced cell. That is exact by locality:

    - Under every entry, whether a cell passes depends only on its own
      faces, on the edges at its vertices and on the squares on those
      edges, and a step changes those only for cells with a vertex in D.
    - Every removed cell is the reduced cell or one of its faces, and an
      edge collapse redirects edges from one end of the removed edge to
      the other, so D holds every vertex of a removed cell and both ends,
      old and new, of a redirected edge.
    - A cell's vertices change only by such a redirection, which wakes
      it, so a failed pair always waits at its cell's vertices.

    A cell's pairs are popped in row order, and a wake puts back all of
    its failed pairs at once, so its failed rows are always a prefix of
    the rows of its degree. So the heap holds each cell once, under the
    first row of its degree, and a failed pair pushes the cell's next row
    of that degree: the least pair of every cell is on the heap, as it
    would be with every pair pushed, and the pairs are popped and checked
    in the same order.

    Each step then costs what the step touches, not a scan of the complex.
    Checks go through the module's `check`, and a step applies the
    certificate its check passed.
    """
    degrees = [_MOVES[row[0][0]][0] for row in rows]
    first: dict[int, int] = {}  # degree -> its first row
    for index, d in enumerate(degrees):
        first.setdefault(d, index)
    # row index -> the next row of its degree, or None
    following = [next((j for j in range(i + 1, len(rows)) if degrees[j] == d), None)
                 for i, d in enumerate(degrees)]
    pending = {(index if rank is None else rank[cid], index, cid)
               for d, index in first.items() for cid in P.cell_ids(d)}
    heap = sorted(pending)  # a sorted list is a heap
    waiting: dict[str, list] = {}  # vertex id -> the failed pairs waiting there
    while heap:
        item = heapq.heappop(heap)
        pending.remove(item)
        _, index, cid = item
        faces = P.faces_of(degrees[index], cid)
        if not faces:  # the cell is gone
            continue
        # an edge's ends, or a square's corners: the ends of its d_1 faces
        vertices = tuple(faces.values()) if degrees[index] == 1 else (
            *P.faces_of(1, faces[(1, 0)]).values(), *P.faces_of(1, faces[(1, 1)]).values())
        for kind, a, b in rows[index]:
            cert = check(P, kind, cid, a, b)
            if cert.all_conditions_hold and cert.fbg_guaranteed:
                break
        else:
            for v in vertices:
                waiting.setdefault(v, []).append(item)
            index = following[index]
            if index is not None:
                item = (index if rank is None else rank[cid], index, cid)
                if item not in pending:
                    pending.add(item)
                    heapq.heappush(heap, item)
            continue
        P._patch(cert._removed, cert._redirected)
        yield cert
        for v in vertices:
            for item in waiting.pop(v, ()):
                if item not in pending:
                    pending.add(item)
                    heapq.heappush(heap, item)


def auto_reduce(
    P: Complex,
    policy: str = "greedy",
    recipe: Optional[list[Step]] = None,
) -> tuple[Complex, list[ReductionCertificate]]:
    """Chain reductions on a working copy of P, made once: either replay
    an explicit recipe (failing on the first inapplicable step) or
    greedily apply guaranteed reductions until none applies. Each greedy
    step takes the first entry of `GREEDY_ATTEMPTS` that applies to some
    cell, on the smallest such cell id. Replay checks each step as apply
    mode would and applies its certificate.

    An unknown policy, or a recipe that is not a list of `Step`s, raises
    OutOfRange before P is read. Either policy then refuses a P above
    dimension 2 with DimensionUnsupported, as each check would, and builds
    the coface tables on P itself, so an invalid P raises ValidationFailed
    even when it has no cell to check."""
    if policy not in ("greedy", "recipe"):
        raise OutOfRange(f"unknown policy {policy!r}")
    if policy == "recipe":
        if not isinstance(recipe, (list, tuple)):
            raise OutOfRange(f"recipe policy needs a list of steps, not {recipe!r}")
        for index, step in enumerate(recipe):
            if not isinstance(step, Step):
                raise OutOfRange(f"recipe entry {index} is {step!r}, not a Step")
    core._require_dimension_2(P, "a reduction")
    P = P._copy()
    if policy == "greedy":
        return P, list(_schedule(P, [(entry,) for entry in GREEDY_ATTEMPTS]))
    trail: list[ReductionCertificate] = []
    for index, step in enumerate(recipe):
        try:
            cert = check(P, step.kind, step.cell, step.a, step.b)
            _require_applicable(cert)
        except (ConditionsFailed, GuaranteeLost) as exc:
            raise RecipeStepFailed(index, step, exc.certificate) from exc
        except (UnknownCell, WrongDegree, OutOfRange) as exc:
            raise RecipeStepFailed(index, step, None) from exc
        P._patch(cert._removed, cert._redirected)
        trail.append(cert)
    return P, trail
