import random

import pytest
from hypothesis import strategies as st

from precubical import core, modelio
from precubical.core import CellRef, Complex


@pytest.fixture
def square():
    return modelio.named_fixture("square")


@pytest.fixture
def interval():
    return modelio.named_fixture("interval")


@pytest.fixture
def circle():
    return modelio.named_fixture("circle")


@pytest.fixture
def double_edge():
    return modelio.named_fixture("double_edge")


@pytest.fixture
def shared_memory():
    return modelio.named_fixture("shared_memory")


def from_edges(edges, squares=None, vertices=()):
    """A complex from edges {id: (source, target)}, squares {id: (d_1^0,
    d_1^1, d_2^0, d_2^1)} and extra vertices."""
    squares = squares or {}
    ends = {x for pair in edges.values() for x in pair}
    faces = {(1, e): {(1, 0): a, (1, 1): b} for e, (a, b) in edges.items()}
    for s, sides in squares.items():
        faces[(2, s)] = dict(zip([(1, 0), (1, 1), (2, 0), (2, 1)], sides))
    return Complex({0: sorted(ends | set(vertices)), 1: list(edges), 2: list(squares)}, faces)


def random_grid_complex(rng: random.Random, max_side: int = 4) -> Complex:
    """A random grid with holes plus dangling edges to fresh vertices.

    Dangling edges attach fresh vertices so the 1-skeleton stays acyclic;
    they perturb the extremal vertex sets, which is the point.
    """
    m = rng.randint(1, max_side)
    n = rng.randint(1, max_side)
    holes = {(i, j) for i in range(m) for j in range(n) if rng.random() < 0.3}
    if len(holes) == m * n:
        holes.pop()
    P = modelio.grid_with_holes(m, n, holes)
    cells = {k: list(P.cell_ids(k)) for k in P.degrees()}
    faces = {
        (k, cid): P.face_table(CellRef(k, cid))
        for k in P.degrees()
        if k > 0
        for cid in P.cell_ids(k)
    }
    for t in range(rng.randint(0, 3)):
        anchor = rng.choice(cells[0])
        new_vertex, new_edge = f"dv{t}", f"de{t}"
        cells[0].append(new_vertex)
        cells[1].append(new_edge)
        if rng.random() < 0.5:
            faces[(1, new_edge)] = {(1, 0): anchor, (1, 1): new_vertex}
        else:
            faces[(1, new_edge)] = {(1, 0): new_vertex, (1, 1): anchor}
    P = Complex(cells, faces)
    assert core.is_valid(P)
    return P


def many_holes(n: int, seed: int = 3, p: float = 0.15) -> set[tuple[int, int]]:
    """The holes of an n x n grid, each square one with probability p,
    drawn by a fresh `random.Random(seed)`."""
    rng = random.Random(seed)
    return {(i, j) for i in range(n) for j in range(n) if rng.random() < p}


PERTURBATIONS = ("rewire", "unknown", "delete", "repeat")


def perturb(P: Complex, rng: random.Random, how: str):
    """P with one defect drawn by rng: a face entry rewired to another
    cell of the right degree ("rewire") or to an unknown id ("unknown"),
    a face entry deleted ("delete"), or an id repeated in its cell list
    ("repeat"). None when P has no face entry, or no other cell, to use."""
    cells = {n: list(P.cell_ids(n)) for n in P.degrees()}
    faces = {(n, cid): P.face_table(CellRef(n, cid)) for n in cells if n > 0 for cid in cells[n]}
    if how == "repeat":
        ids = cells[rng.choice(sorted(cells))]
        ids.insert(rng.randrange(len(ids) + 1), rng.choice(ids))
        return Complex(cells, faces)
    entries = sorted((n, cid, i, k) for (n, cid), table in faces.items() for i, k in table)
    if not entries:
        return None
    n, cid, i, k = rng.choice(entries)
    table = faces[(n, cid)]
    if how == "delete":
        del table[(i, k)]
    elif how == "unknown":
        table[(i, k)] = "ghost"
    else:
        others = [c for c in cells[n - 1] if c != table[(i, k)]]
        if not others:
            return None
        table[(i, k)] = rng.choice(others)
    return Complex(cells, faces)


def glued_complex(integer, choice, max_side: int = 4, max_squares: int = 12) -> Complex:
    """A valid 2-complex that is not a grid, drawn through `integer(lo, hi)`
    (inclusive) and `choice(seq)`. Vertices sit on a lattice; each square
    spans one or two steps per direction, so squares overlap and are glued
    along shared edges, and an edge may lie on more than two squares. Some
    sides get a parallel copy of an edge, a few squares take arbitrary
    corners (irregular squares, loops), and pendant edges are added. Ids
    are numbered in creation order, so their sorted order, which greedy
    choices follow, is mixed."""
    m, n = integer(1, max_side), integer(1, max_side)
    lattice = tuple((i, j) for i in range(m + 1) for j in range(n + 1))
    vertices = list(lattice)
    edges: dict[str, tuple[tuple, tuple]] = {}
    squares: dict[str, dict[tuple[int, int], str]] = {}

    def edge(src, tgt) -> str:
        same = [e for e, ends in edges.items() if ends == (src, tgt)]
        if same and integer(0, 5):
            return choice(same)
        eid = f"e{len(edges)}"
        edges[eid] = (src, tgt)
        return eid

    for t in range(integer(0, max_squares)):
        if integer(0, 7):
            i, j = integer(0, m - 1), integer(0, n - 1)
            di = integer(1, min(2, m - i))
            dj = integer(1, min(2, n - j))
            p, q, r, w = (i, j), (i, j + dj), (i + di, j), (i + di, j + dj)
        else:
            p, q, r, w = (choice(lattice) for _ in range(4))
        # d_1^0 = p->q, d_1^1 = r->w, d_2^0 = p->r, d_2^1 = q->w satisfy
        # the cubical identities for any choice of the four corners.
        squares[f"s{t}"] = {
            (1, 0): edge(p, q), (1, 1): edge(r, w), (2, 0): edge(p, r), (2, 1): edge(q, w),
        }
    for _ in range(integer(0, 3)):
        anchor, tail = choice(lattice), ("t", len(vertices))
        vertices.append(tail)
        edge(*((anchor, tail) if integer(0, 1) else (tail, anchor)))
    name = {v: f"v{'_'.join(map(str, v))}" for v in vertices}
    faces = {(1, e): {(1, 0): name[s], (1, 1): name[t]} for e, (s, t) in edges.items()}
    faces.update({(2, s): table for s, table in squares.items()})
    P = Complex({0: list(name.values()), 1: list(edges), 2: list(squares)}, faces)
    assert core.is_valid(P)
    return P


@st.composite
def glued_complexes(draw, max_side: int = 4, max_squares: int = 12):
    """:func:`glued_complex` drawn by Hypothesis."""
    return glued_complex(
        lambda lo, hi: draw(st.integers(lo, hi)),
        lambda seq: draw(st.sampled_from(seq)),
        max_side,
        max_squares,
    )


def random_glued_complex(rng: random.Random, max_side: int = 4, max_squares: int = 12) -> Complex:
    """:func:`glued_complex` drawn by a seeded `random.Random`."""
    return glued_complex(rng.randint, rng.choice, max_side, max_squares)


def relabelled(P: Complex, rng: random.Random) -> Complex:
    """P with every id replaced by a fresh random one and every cell list
    and face table in shuffled order: isomorphic to P by construction."""
    rename = {}
    cells = {}
    for n in P.degrees():
        ids = list(P.cell_ids(n))
        names = rng.sample(range(16**6), len(ids))
        rename.update({(n, c): f"c{x:06x}" for c, x in zip(ids, names)})
        cells[n] = [rename[(n, c)] for c in ids]
        rng.shuffle(cells[n])
    faces = {}
    for n in P.degrees():
        for c in P.cell_ids(n) if n else ():
            table = list(P.face_table(CellRef(n, c)).items())
            rng.shuffle(table)
            faces[(n, rename[(n, c)])] = {key: rename[(n - 1, f)] for key, f in table}
    return Complex(cells, faces)
