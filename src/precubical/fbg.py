"""Fundamental bipartite graph of a 2-dimensional complex.

Two directed edge paths are elementarily related when they differ in two
consecutive edges replaced as [d_2^0 s, d_1^1 s] <-> [d_1^0 s, d_2^1 s]
for some square s; dihomotopy classes are the reflexive-transitive
closure. :func:`fundamental_bipartite_graph` counts them between every
minimal and every maximal vertex of an acyclic 1-skeleton, in polynomial
time, by dynamic programming over the path category.
:func:`enumerate_dipaths` and :func:`dihomotopy_classes` are the
exponential brute force (every path, then union-find) it is checked
against.

This is the verification oracle for the reduction operations: a
reduction whose certificate claims preservation must leave the table
produced here unchanged.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .core import CellRef, Complex
from .errors import NotAcyclic, OutOfRange, PathExplosion, UnknownCell

DEFAULT_MAX_PATHS = 1_000_000


@dataclass(frozen=True)
class EdgePath:
    """A composable sequence of edges; empty paths sit at their start."""

    start: CellRef
    end: CellRef
    edges: tuple[CellRef, ...]

    def __len__(self):
        return len(self.edges)

    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.edges)


def _topological_order(P: Complex) -> list[str]:
    """The vertex ids ordered so that every edge points forward (Kahn's
    algorithm over the coface tables). Raises NotAcyclic on a directed
    cycle (a self-loop counts) and ValidationFailed on a broken face
    table."""
    starts, ends, _ = P.coface_tables()
    indegree = {v: len(ends.get(v, ())) for v in sorted(P.cell_ids(0))}
    ready = [v for v, d in indegree.items() if d == 0]
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for e in starts.get(v, ()):
            w = P.faces_of(1, e)[(1, 1)]
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    if len(order) != len(indegree):
        raise NotAcyclic("the 1-skeleton has a directed cycle")
    return order


def one_skeleton_is_acyclic(P: Complex) -> bool:
    """True iff the directed graph on vertices and edges has no directed
    cycle (a self-loop counts as a cycle)."""
    try:
        _topological_order(P)
    except NotAcyclic:
        return False
    return True


def enumerate_dipaths(
    P: Complex,
    start: CellRef,
    end: CellRef,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> list[EdgePath]:
    """All directed edge paths from start to end, in lexicographic order
    of their edge-id sequences (depth first, exponential in general)."""
    for v in (start, end):
        if not P.has(v) or v.degree != 0:
            raise UnknownCell(f"no vertex {v.id!r}")
    if not one_skeleton_is_acyclic(P):
        raise NotAcyclic("the 1-skeleton has a directed cycle")

    paths: list[EdgePath] = []
    stack: list[CellRef] = []  # the edges of the current path

    def record():
        if len(paths) >= max_paths:
            raise PathExplosion(
                f"more than max_paths={max_paths} paths from {start.id!r} to {end.id!r}"
            )
        paths.append(EdgePath(start, end, tuple(stack)))

    if start == end:
        record()  # end may still have outgoing edges elsewhere
    pending = [iter(P.edges_at(start, 0))]  # unexplored out-edges per path vertex
    while pending:
        e = next(pending[-1], None)
        if e is None:
            pending.pop()
            if stack:
                stack.pop()
            continue
        stack.append(e)
        at = P.face(e, 1, 1)
        if at == end:
            record()
        pending.append(iter(P.edges_at(at, 0)))
    return paths


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int):
        self.parent[self.find(j)] = self.find(i)


def _exchange_table(P: Complex) -> dict[tuple[CellRef, CellRef], set[tuple[CellRef, CellRef]]]:
    """Map a consecutive edge pair to the pairs it can be exchanged with."""
    table: dict[tuple[CellRef, CellRef], set[tuple[CellRef, CellRef]]] = {}
    for s in P.cells(2):
        lower = (P.face(s, 2, 0), P.face(s, 1, 1))
        upper = (P.face(s, 1, 0), P.face(s, 2, 1))
        table.setdefault(lower, set()).add(upper)
        table.setdefault(upper, set()).add(lower)
    return table


def dihomotopy_classes(
    P: Complex,
    start: CellRef,
    end: CellRef,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> list[list[EdgePath]]:
    """Partition of all start-to-end paths into square-exchange classes.

    Classes are ordered by their lexicographically least member and each
    class lists its paths in enumeration order.
    """
    paths = enumerate_dipaths(P, start, end, max_paths)
    index = {p.edges: i for i, p in enumerate(paths)}
    exchanges = _exchange_table(P)
    uf = _UnionFind(len(paths))
    for i, p in enumerate(paths):
        for t in range(len(p.edges) - 1):
            pair = (p.edges[t], p.edges[t + 1])
            for replacement in exchanges.get(pair, ()):
                other = p.edges[:t] + replacement + p.edges[t + 2 :]
                j = index.get(other)
                if j is not None:
                    uf.union(i, j)

    groups: dict[int, list[EdgePath]] = {}
    for i, p in enumerate(paths):
        groups.setdefault(uf.find(i), []).append(p)
    return sorted(groups.values(), key=lambda g: g[0].edge_ids())


@dataclass(frozen=True)
class FbgTable:
    """Class counts and representatives between extremal vertices."""

    minimals: tuple[CellRef, ...]
    maximals: tuple[CellRef, ...]
    classes: dict  # (min vertex, max vertex) -> (count, tuple of representatives)

    def count(self, m: CellRef, M: CellRef) -> int:
        return self.classes[(m, M)][0]


def fundamental_bipartite_graph(
    P: Complex, max_paths: int = DEFAULT_MAX_PATHS
) -> FbgTable:
    """The table of dihomotopy-class counts between all pairs of one
    minimal and one maximal vertex, with the lexicographically least
    path of each class as representative. Raises PathExplosion when more
    than max_paths classes of paths from one minimal vertex reach one
    vertex, and OutOfRange when max_paths is not an int of at least 1."""
    if not isinstance(max_paths, int) or max_paths < 1:
        raise OutOfRange(f"max_paths must be an int of at least 1, not {max_paths!r}")
    order = _topological_order(P)
    _, ends, on_edge = P.coface_tables()
    # Per vertex id: its in-edges as (edge id, source id), and as
    # (a, b, a', b') the squares with top vertex there, [a, b] and
    # [a', b'] being the sides [d_2^0 s, d_1^1 s] and [d_1^0 s, d_2^1 s].
    into: dict[str, list[tuple[str, str]]] = {}
    tops: dict[str, list[tuple[str, str, str, str]]] = {}
    for w in order:
        edges = ends.get(w, ())
        into[w] = [(e, P.faces_of(1, e)[(1, 0)]) for e in edges]
        tops[w] = [
            (f[(2, 0)], e, f[(1, 0)], f[(2, 1)])
            for e in edges
            for s in on_edge.get(e, ())
            if (f := P.faces_of(2, s))[(1, 1)] == e
        ]
    outdegree = Counter(u for w in order for _, u in into[w])
    minimals = tuple(CellRef(0, w) for w in sorted(order) if not into[w])
    maximals = tuple(CellRef(0, w) for w in sorted(order) if not outdegree[w])
    classes = {}
    for m in minimals:
        reps = _classes_from(order[order.index(m.id) :], into, tops, outdegree, max_paths)
        for M in maximals:
            found = reps.get(M.id, ())
            paths = (EdgePath(m, M, tuple(CellRef(1, e) for e in rep)) for rep in found)
            classes[(m, M)] = (len(found), tuple(paths))
    return FbgTable(minimals, maximals, classes)


def _classes_from(order, into, tops, outdegree, max_paths) -> dict[str, list[tuple[str, ...]]]:
    """The sorted class representatives (edge-id tuples) of the paths
    from order[0] to each maximal vertex it reaches.

    A class at w is a union-find class of pairs (class c at v, edge v -> w):
    an exchange inside a prefix keeps its class, so the only relation left
    is (class of c.a, b) ~ (class of c.a', b') for each square with top w
    and each class c at its start. Classes are length-homogeneous, so the
    least path of a class is the least rep(c) + (e,) over its pairs. A
    vertex's representatives are dropped once its out-edges are consumed.
    """
    m = order[0]
    reps = {m: [()]}  # vertex -> its classes' representatives, sorted
    via: dict[str, list[int]] = {}  # edge u -> v: class at v of (c, edge), by class c at u
    unused = dict(outdegree)
    for w in order[1:]:
        ins = [(e, u) for e, u in into[w] if u in reps]
        if not ins:
            continue
        offset, total = {}, 0
        for e, u in ins:
            offset[e] = total
            total += len(reps[u])
        uf = _UnionFind(total)
        for a, b, a2, b2 in tops[w]:
            if a in via:
                for x, y in zip(via[a], via[a2]):
                    uf.union(offset[b] + x, offset[b2] + y)
        least: dict[int, tuple] = {}  # root -> least (rep(c), e) of its pairs
        for e, u in ins:
            for c, rep in enumerate(reps[u]):
                root, key = uf.find(offset[e] + c), (rep, e)
                if root not in least or key < least[root]:
                    least[root] = key
        if len(least) > max_paths:
            raise PathExplosion(
                f"{len(least)} classes of paths from {m!r} reach {w!r}, "
                f"more than max_paths={max_paths}"
            )
        paths = {root: rep + (e,) for root, (rep, e) in least.items()}
        roots = sorted(paths, key=paths.get)  # classes may differ in length
        index = {root: k for k, root in enumerate(roots)}
        reps[w] = [paths[r] for r in roots]
        for e, u in ins:
            via[e] = [index[uf.find(offset[e] + c)] for c in range(len(reps[u]))]
            unused[u] -= 1
            if not unused[u]:
                del reps[u]
    return reps


def count_profile(table: FbgTable) -> tuple:
    """Shape of a table with vertex identities forgotten: the sizes of
    both vertex classes and the sorted multiset of per-pair counts."""
    counts = sorted(count for count, _ in table.classes.values())
    return (len(table.minimals), len(table.maximals), tuple(counts))


def fbg_equal(A: FbgTable, B: FbgTable, by_profile: bool = False) -> bool:
    """True iff the tables agree: same extremal vertex sets and the same
    count on every pair (representatives are ignored). With by_profile,
    vertex identities are forgotten and only count profiles compare."""
    if by_profile:
        return count_profile(A) == count_profile(B)
    if set(A.minimals) != set(B.minimals) or set(A.maximals) != set(B.maximals):
        return False
    return all(
        A.classes[pair][0] == B.classes[pair][0] for pair in A.classes
    )
