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

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Sequence

from .core import CellRef, Complex, _is_int, maximal_vertices, minimal_vertices
from .errors import NotAcyclic, OutOfRange, PathExplosion, UnknownCell

DEFAULT_MAX_PATHS = 1_000_000


@dataclass(frozen=True, init=False, eq=False, repr=False)
class EdgePath:
    """A composable sequence of edges; empty paths sit at their start.

    An EdgePath is immutable, and compares and hashes by `start`, `end`
    and `edges`. Both constructors store the edge ids, read by
    :meth:`edge_ids` and `len`; one that :func:`fundamental_bipartite_graph`
    returns builds `edges`, the tuple of edge CellRefs, on first read.
    """

    start: CellRef
    end: CellRef

    def __init__(self, start: CellRef, end: CellRef, edges: tuple[CellRef, ...]):
        self.__dict__.update(start=start, end=end, edges=edges, _ids=tuple(e.id for e in edges))

    @classmethod
    def _of_ids(cls, start: CellRef, end: CellRef, ids: tuple[str, ...]) -> EdgePath:
        self = cls.__new__(cls)
        self.__dict__.update(start=start, end=end, _ids=ids)
        return self

    @cached_property
    def edges(self) -> tuple[CellRef, ...]:
        return tuple(CellRef(1, e) for e in self._ids)

    def __len__(self):
        return len(self._ids)

    def edge_ids(self) -> tuple[str, ...]:
        return self._ids

    def __eq__(self, other):
        if not isinstance(other, EdgePath):
            return NotImplemented
        return (self.start, self.end, self.edges) == (other.start, other.end, other.edges)

    def __hash__(self):
        return hash((self.start, self.end, self.edges))

    def __repr__(self):
        return f"EdgePath(start={self.start!r}, end={self.end!r}, edges={self.edges!r})"


def _topological_order(P: Complex) -> list[str]:
    """The vertex ids ordered so that every edge points forward (Kahn's
    algorithm over the coface tables). Raises NotAcyclic on a directed
    cycle (a self-loop counts) and ValidationFailed on a broken face
    table."""
    starts, ends, _ = P.coface_tables()
    faces = P._faces
    indegree = {v: len(ends.get(v, ())) for v in sorted(P.cell_ids(0))}
    ready = [v for v, d in indegree.items() if d == 0]
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for e in starts.get(v, ()):
            w = faces[(1, e)][(1, 1)]
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    if len(order) != len(indegree):
        raise NotAcyclic("the 1-skeleton has a directed cycle")
    return order


def _check_max_paths(max_paths):
    """Refuse a cap that is not an int of at least 1 (a bool is not)."""
    if not (_is_int(max_paths) and max_paths >= 1):
        raise OutOfRange(f"max_paths must be an int of at least 1, not {max_paths!r}")


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
    of their edge-id sequences (depth first, exponential in general).
    Raises OutOfRange, before the complex is read, when max_paths is not
    an int of at least 1, UnknownCell unless start and end are vertices
    of P, and PathExplosion past max_paths paths."""
    _check_max_paths(max_paths)
    for v in (start, end):
        P._known(v, 0)
    _topological_order(P)  # raises NotAcyclic

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
    class lists its paths in enumeration order. max_paths is read, and
    refused, as by enumerate_dipaths.
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
    """Class counts and representatives between extremal vertices.

    A pair's representatives are the lexicographically least paths of its
    classes, in lexicographic order. In a table from
    :func:`fundamental_bipartite_graph` they keep their edge ids and build
    their `edges` on first read, and every pair with no path shares one
    entry, (0, ()).
    """

    minimals: tuple[CellRef, ...]
    maximals: tuple[CellRef, ...]
    classes: dict  # (min vertex, max vertex) -> (count, tuple of representatives), pairs sorted

    def count(self, m: CellRef, M: CellRef) -> int:
        try:  # UnknownCell for a pair the table lacks; an unhashable id names none
            return self.classes[(m, M)][0]
        except (KeyError, TypeError):
            raise UnknownCell(f"no pair ({m!r}, {M!r}) in the table") from None


def fundamental_bipartite_graph(
    P: Complex, max_paths: int = DEFAULT_MAX_PATHS
) -> FbgTable:
    """The table of dihomotopy-class counts between all pairs of one
    minimal and one maximal vertex, with the lexicographically least
    path of each class as representative. Raises PathExplosion when more
    than max_paths classes of paths from one minimal vertex reach one
    vertex, and OutOfRange when max_paths is not an int of at least 1."""
    _check_max_paths(max_paths)
    order = _topological_order(P)
    starts = P.coface_tables()[0]
    faces = P._faces
    # Per vertex id: its in-edges as (edge id, source id), and as
    # (a, b, a', b') the squares with top vertex there, [a, b] and
    # [a', b'] being the sides [d_2^0 s, d_1^1 s] and [d_1^0 s, d_2^1 s].
    # Only vertices with an in-edge, or a square on top, have an entry.
    # One pass over the face tables in their stored order; an unlisted
    # cell may keep an empty one.
    into: dict[str, list[tuple[str, str]]] = {}
    tops: dict[str, list[tuple[str, str, str, str]]] = {}
    for (n, c), f in faces.items():
        if n == 1 and f:
            into.setdefault(f[(1, 1)], []).append((c, f[(1, 0)]))
        elif n == 2 and f:
            b = f[(1, 1)]
            tops.setdefault(faces[(1, b)][(1, 1)], []).append((f[(2, 0)], b, f[(1, 0)], f[(2, 1)]))
    minimals, maximals = tuple(sorted(minimal_vertices(P))), tuple(sorted(maximal_vertices(P)))
    reps = _classes(order, minimals, into, tops, starts, max_paths)
    classes = dict.fromkeys(((m, M) for m in minimals for M in maximals), (0, ()))  # pair order
    for M in maximals:
        for m, group in groupby(reps[M.id], lambda rep: minimals[rep[0]]):
            paths = tuple(EdgePath._of_ids(m, M, tuple(rep[1:])) for rep in group)
            classes[(m, M)] = (len(paths), paths)
    return FbgTable(minimals, maximals, classes)


def _classes(order, minimals, into, tops, starts, max_paths) -> dict[str, list[list]]:
    """The sorted class representatives at each maximal vertex, from one
    pass that starts each minimal vertex minimals[i] with one class, [i].

    A class at w is a union-find class of pairs (class c at v, edge v -> w):
    an exchange inside a prefix keeps its class and its start, so the only
    relation left is (class of c.a, b) ~ (class of c.a', b') for each square
    with top w and each class c at its start. Classes are length-homogeneous,
    so the least path of a class is the least rep(c) + [e] over its pairs. A
    vertex's representatives are dropped once its out-edges are consumed.

    Where w is reached by one edge e from u and tops no square, nothing
    merges: w's classes are u's, each extended by e, in the same order (no
    path to u is a prefix of another, the 1-skeleton being acyclic), so
    the count does not grow. If e is u's last out-edge, u's
    representatives move to w and are extended in place; otherwise they
    are copied. A representative is thus copied only at a branch point or
    a merge, and a chain of L edges costs O(L), not O(L^2).
    """
    reps = {m.id: [[i]] for i, m in enumerate(minimals)}  # vertex -> its classes' reps, sorted
    via: dict[str, Sequence[int]] = {}  # edge u -> v: class at v of (c, edge), by class c at u
    unused = {u: len(ids) for u, ids in starts.items()}
    for w in order:
        ins = into.get(w)
        if not ins:
            continue
        if len(ins) == 1 and w not in tops:
            [(e, u)] = ins
            unused[u] -= 1
            if unused[u]:
                reps[w] = [rep + [e] for rep in reps[u]]
            else:
                reps[w] = reps.pop(u)
                for rep in reps[w]:
                    rep.append(e)
            via[e] = range(len(reps[w]))
            continue
        offset, total = {}, 0
        for e, u in ins:
            offset[e] = total
            total += len(reps[u])
        uf = _UnionFind(total)
        for a, b, a2, b2 in tops.get(w, ()):
            for x, y in zip(via[a], via[a2]):
                uf.union(offset[b] + x, offset[b2] + y)
        least: dict[int, tuple] = {}  # root -> least (rep(c), e) of its pairs
        for e, u in ins:
            for c, rep in enumerate(reps[u]):
                root, key = uf.find(offset[e] + c), (rep, e)
                if root not in least or key < least[root]:
                    least[root] = key
        paths = {root: rep + [e] for root, (rep, e) in least.items()}
        roots = sorted(paths, key=paths.get)  # classes may differ in length
        index = {root: k for k, root in enumerate(roots)}
        reps[w] = [paths[r] for r in roots]
        if len(roots) > max_paths:  # then count the classes from each minimal vertex
            for m, group in groupby(reps[w], lambda rep: minimals[rep[0]]):
                if (count := len(list(group))) > max_paths:
                    raise PathExplosion(
                        f"{count} classes of paths from {m.id!r} reach {w!r}, "
                        f"more than max_paths={max_paths}"
                    )
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
