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
from typing import Optional

from . import core
from .core import CellRef, Complex
from .errors import (
    ConditionsFailed,
    DimensionUnsupported,
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


@dataclass(frozen=True)
class ReductionCertificate:
    kind: str
    cell: CellRef
    params: dict
    conditions: tuple[Condition, ...]
    removed: frozenset[CellRef]
    redirected: dict  # (CellRef, i, k) -> CellRef, nonempty only for edge-collapse
    y: Optional[frozenset[CellRef]]  # absent for square-one-free
    r_cells: Optional[frozenset[CellRef]]  # the subset R, only for square-two-free
    fbg_guaranteed: bool

    @property
    def all_conditions_hold(self) -> bool:
        return all(c.holds for c in self.conditions)

    def condition(self, label: str) -> Condition:
        for c in self.conditions:
            if c.label == label:
                return c
        raise KeyError(label)


def _require(P: Complex, cell_id: str, degree: int) -> CellRef:
    x = CellRef(degree, cell_id)
    if not P.has(x):
        for n in P.degrees():
            if P.has(CellRef(n, cell_id)):
                raise WrongDegree(f"cell {cell_id!r} has degree {n}, expected {degree}")
        raise UnknownCell(f"no cell {cell_id!r} of degree {degree}")
    return x


def _cells(degree: int, ids) -> tuple[CellRef, ...]:
    return tuple(CellRef(degree, c) for c in ids)


def _edges_at(cofaces, v: str) -> set[str]:
    """The ids of the edges with v at either end."""
    return {*cofaces[0].get(v, ()), *cofaces[1].get(v, ())}


def _other_squares(on_edge: dict, x: str, edges) -> tuple[CellRef, ...]:
    """The squares other than x on any of the given edges, sorted."""
    return _cells(2, sorted({s for e in edges for s in on_edge.get(e, ()) if s != x}))


# Each move's own conditions. Given P, its coface tables, the cell x and
# the parameters a, b, a move returns its conditions after "reg" as
# (label, witnesses) pairs, each holding when it has no witness, then the
# removed cells, the redirected face entries, Y and R.


def _edge_collapse_conditions(P, cofaces, x, a, b):
    faces = P.faces_of(1, x.id)
    v = faces[(1, 1 - b)]  # the vertex that disappears
    w = CellRef(0, faces[(1, b)])  # the vertex x collapses onto
    same_endpoint = _cells(1, [yy for yy in cofaces[1 - b].get(v, ()) if yy != x.id])
    blocked = _cells(1, sorted(e for e in _edges_at(cofaces, v) if e in cofaces[2]))
    y = _cells(1, cofaces[b].get(v, ()))
    redirected = {(yy, 1, b): w for yy in y}
    return (("i", same_endpoint), ("ii", blocked)), {x, CellRef(0, v)}, redirected, y, None


def _square_one_free_conditions(P, cofaces, x, a, b):
    faces = P.faces_of(2, x.id)
    e1, e2 = faces[(1, 1 - b)], faces[(2, b)]
    corner = P.faces_of(1, e1)[(1, b)]  # equals d_1^{1-b} d_2^b x
    other = _other_squares(cofaces[2], x.id, (e1, e2))
    extra = _cells(1, sorted(_edges_at(cofaces, corner) - {e1, e2}))
    removed = {x, CellRef(1, e1), CellRef(1, e2), CellRef(0, corner)}
    return (("i", other), ("ii", extra)), removed, {}, None, None


def _square_two_free_conditions(P, cofaces, x, a, b):
    faces = P.faces_of(2, x.id)
    e_keep, e_drop = faces[(a, 1 - b)], faces[(3 - a, b)]
    other = _other_squares(cofaces[2], x.id, (e_keep, e_drop))
    v_keep = P.faces_of(1, e_keep)[(1, b)]
    parallel = _cells(1, [yy for yy in cofaces[b].get(v_keep, ()) if yy != e_keep])
    v_drop = P.faces_of(1, e_drop)[(1, 1 - b)]
    y = _cells(1, [yy for yy in cofaces[1 - b].get(v_drop, ()) if yy != e_drop])
    bad_y = tuple(yy for yy in y if yy.id in cofaces[2])
    removed = {x, CellRef(1, e_drop)}
    r_cells = P.cell_set() - {*removed, CellRef(0, v_drop), CellRef(1, e_keep), *y}
    return (("i", other), ("ii", parallel), ("iii", bad_y)), removed, {}, y, r_cells


# kind -> (degree of the reduced cell, the move's conditions)
_MOVES = {
    EDGE_COLLAPSE: (1, _edge_collapse_conditions),
    SQUARE_ONE_FREE: (2, _square_one_free_conditions),
    SQUARE_TWO_FREE: (2, _square_two_free_conditions),
}


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
    """Run one reduction in check mode and return its certificate."""
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
    return the reduced complex with the certificate. `a` is read only for
    square-two-free."""
    if kind not in _MOVES:
        raise OutOfRange(f"unknown reduction kind {kind!r}")
    if b not in (0, 1):
        raise OutOfRange(f"b must be 0 or 1, not {b!r}")
    if kind == SQUARE_TWO_FREE and a not in (1, 2):
        raise OutOfRange(f"a must be 1 or 2, not {a!r}")
    if mode not in ("apply", "check"):
        raise OutOfRange(f"mode must be 'apply' or 'check', not {mode!r}")
    dim = P.dimension
    if dim is not None and dim > 2:
        raise DimensionUnsupported(
            f"reductions operate in dimension <= 2, complex has dimension {dim}"
        )
    cofaces = P.coface_tables()
    degree, conditions_of = _MOVES[kind]
    x = _require(P, cell_id, degree)
    reg = core.is_regular(P, x)
    found, removed, redirected, y, r_cells = conditions_of(P, cofaces, x, a, b)
    cert = ReductionCertificate(
        kind=kind,
        cell=x,
        params={"a": a, "b": b} if kind == SQUARE_TWO_FREE else {"b": b},
        conditions=(Condition("reg", reg), *(Condition(label, not w, w) for label, w in found)),
        removed=frozenset(removed),
        redirected=redirected,
        y=None if y is None else frozenset(y),
        r_cells=r_cells,
        fbg_guaranteed=kind == SQUARE_ONE_FREE or bool(y),
    )
    if mode == "check":
        return None, cert
    if not cert.all_conditions_hold:
        raise ConditionsFailed(cert)
    if not cert.fbg_guaranteed and not allow_empty_y:
        raise GuaranteeLost(cert)
    return P.reduced(cert.removed, cert.redirected), cert


@dataclass(frozen=True)
class Step:
    """One entry of a reduction recipe."""

    kind: str
    cell: str
    b: int
    a: Optional[int] = None

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


def greedy_reduce(
    P: Complex,
    attempts: tuple[tuple[str, Optional[int], int], ...] = GREEDY_ATTEMPTS,
) -> tuple[Complex, list[ReductionCertificate]]:
    """Apply guaranteed reductions until none applies. Each step takes the
    first entry of `attempts` that applies to some cell, on the smallest
    such cell id, and the trail lists the applied certificates.

    A worklist keeps, per entry of `attempts`, the cells not yet known to
    fail; cells leave it when their check fails. It is exact because of
    the locality rule:

    - Under every entry, whether a cell passes depends only on its own
      faces, on the edges at its vertices and on the squares on those
      edges.
    - A step changes those only for cells with a vertex in D, the set of
      the vertices of the removed cells and of the redirected edges (old
      endpoints and new targets alike). An edge collapse redirects edges
      from one end of the removed edge to the other, so D is the set of
      the vertices of the removed cells.
    - So after a step, re-queueing every edge at a vertex of D and every
      square on such an edge, under every entry, leaves out no cell whose
      answer may have changed.

    Each step then costs what the step touches, not a scan of the complex.
    Checks go through the module's `check`, and a step applies the
    certificate its check passed.
    """
    degrees = [_MOVES[kind][0] for kind, _, _ in attempts]
    pending = [set(P.cell_ids(d)) for d in degrees]
    heaps = [sorted(ids) for ids in pending]  # a sorted list is a heap
    trail: list[ReductionCertificate] = []
    while True:
        chosen = None
        for index, (kind, a, b) in enumerate(attempts):
            queue, heap = pending[index], heaps[index]
            while heap:
                cid = heap[0]
                if cid in queue:
                    cert = check(P, kind, cid, a, b)
                    if cert.all_conditions_hold and cert.fbg_guaranteed:
                        chosen = cert
                        break
                    queue.discard(cid)
                heapq.heappop(heap)
            if chosen is not None:
                break
        if chosen is None:
            return P, trail
        cert = chosen
        Q = P.reduced(cert.removed, cert.redirected)
        trail.append(cert)

        touched: set[str] = set()  # D, as vertex ids
        for cell in cert.removed:
            *_, vertices = core._iterated_faces(P, cell.degree, cell.id)
            touched |= vertices
        cofaces = Q.coface_tables()
        star = {1: set(), 2: set()}
        for v in touched:  # a removed vertex has no entries left
            for e in _edges_at(cofaces, v):
                star[1].add(e)
                star[2].update(cofaces[2].get(e, ()))
        for queue, heap, degree in zip(pending, heaps, degrees):
            queue -= {cell.id for cell in cert.removed if cell.degree == degree}
            for cid in star[degree] - queue:
                queue.add(cid)
                heapq.heappush(heap, cid)
        P = Q


def auto_reduce(
    P: Complex,
    policy: str = "greedy",
    recipe: Optional[list[Step]] = None,
) -> tuple[Complex, list[ReductionCertificate]]:
    """Chain reductions: either replay an explicit recipe (failing on the
    first inapplicable step) or greedily apply guaranteed reductions in a
    fixed deterministic order until no further one applies."""
    trail: list[ReductionCertificate] = []
    if policy == "recipe":
        if recipe is None:
            raise OutOfRange("recipe policy needs a step list")
        for index, step in enumerate(recipe):
            try:
                Q, cert = run(P, step.kind, step.cell, step.a, step.b)
            except (ConditionsFailed, GuaranteeLost) as exc:
                raise RecipeStepFailed(index, step, exc.certificate) from exc
            except (UnknownCell, WrongDegree, OutOfRange) as exc:
                raise RecipeStepFailed(index, step, None) from exc
            trail.append(cert)
            P = Q
        return P, trail
    if policy != "greedy":
        raise OutOfRange(f"unknown policy {policy!r}")
    return greedy_reduce(P)
