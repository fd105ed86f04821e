"""Brute-force fundamental bipartite graph of a 2-dimensional complex.

Directed edge paths between extremal vertices are enumerated exhaustively
(the 1-skeleton must be acyclic) and partitioned by the reflexive-
transitive closure of elementary square exchange: two paths are
elementarily related when they differ in two consecutive edges replaced
as [d_2^0 s, d_1^1 s] <-> [d_1^0 s, d_2^1 s] for some square s. The
partition is computed by union-find over the enumerated path set.

This is the verification oracle for the reduction operations: a
reduction whose certificate claims preservation must leave the table
produced here unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import core
from .core import CellRef, Complex
from .errors import NotAcyclic, PathExplosion, UnknownCell

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


def one_skeleton_is_acyclic(P: Complex) -> bool:
    """True iff the directed graph on vertices and edges has no directed
    cycle (a self-loop counts as a cycle)."""
    outgoing: dict[CellRef, list[CellRef]] = {v: [] for v in P.cells(0)}
    indegree: dict[CellRef, int] = {v: 0 for v in P.cells(0)}
    for e in P.cells(1):
        src, tgt = P.face(e, 1, 0), P.face(e, 1, 1)
        outgoing[src].append(tgt)
        indegree[tgt] += 1
    queue = [v for v, d in indegree.items() if d == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in outgoing[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                queue.append(w)
    return seen == len(indegree)


def enumerate_dipaths(
    P: Complex,
    start: CellRef,
    end: CellRef,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> list[EdgePath]:
    """All directed edge paths from start to end, in lexicographic order
    of their edge-id sequences."""
    for v in (start, end):
        if not P.has(v) or v.degree != 0:
            raise UnknownCell(f"no vertex {v.id!r}")
    if not one_skeleton_is_acyclic(P):
        raise NotAcyclic("the 1-skeleton has a directed cycle")

    outgoing: dict[CellRef, list[CellRef]] = {v: [] for v in P.cells(0)}
    for e in P.cells(1):
        outgoing[P.face(e, 1, 0)].append(e)
    for v in outgoing:
        outgoing[v].sort(key=lambda e: e.id)

    paths: list[EdgePath] = []
    stack: list[CellRef] = []

    def walk(at: CellRef):
        if at == end:
            if len(paths) >= max_paths:
                raise PathExplosion(f"more than {max_paths} paths from {start.id!r}")
            paths.append(EdgePath(start, end, tuple(stack)))
            # fall through: end may still have outgoing edges elsewhere
        for e in outgoing[at]:
            stack.append(e)
            walk(P.face(e, 1, 1))
            stack.pop()

    walk(start)
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
    path of each class as representative."""
    if not one_skeleton_is_acyclic(P):
        raise NotAcyclic("the 1-skeleton has a directed cycle")
    minimals = tuple(sorted(core.minimal_vertices(P)))
    maximals = tuple(sorted(core.maximal_vertices(P)))
    classes = {}
    for m in minimals:
        for M in maximals:
            partition = dihomotopy_classes(P, m, M, max_paths)
            reps = tuple(cls[0] for cls in partition)
            classes[(m, M)] = (len(partition), reps)
    return FbgTable(minimals, maximals, classes)


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
