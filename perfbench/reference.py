"""Answers the benchmark computes on its own, without the library.

Every model's output is checked against these, so a wrong answer from
precubical counts as failed however fast it came back.
"""

from __future__ import annotations

import itertools


def grid_tables(m: int, n: int, holes) -> tuple[dict, dict]:
    """Cells and face tables of the m-by-n grid with the given squares
    removed, in the documented pcsv1 layout: vertex (i,j), edge h(i,j)
    from (i,j) to (i+1,j), edge v(i,j) from (i,j) to (i,j+1), square
    s(i,j) with d1 = v(i,j), v(i+1,j) and d2 = h(i,j), h(i,j+1)."""
    holes = set(holes)
    cells = {0: [], 1: [], 2: []}
    faces = {}
    for i in range(m + 1):
        for j in range(n + 1):
            cells[0].append(f"({i},{j})")
    for i in range(m):
        for j in range(n + 1):
            cells[1].append(f"h({i},{j})")
            faces[(1, f"h({i},{j})")] = {(1, 0): f"({i},{j})", (1, 1): f"({i + 1},{j})"}
    for i in range(m + 1):
        for j in range(n):
            cells[1].append(f"v({i},{j})")
            faces[(1, f"v({i},{j})")] = {(1, 0): f"({i},{j})", (1, 1): f"({i},{j + 1})"}
    for i in range(m):
        for j in range(n):
            if (i, j) not in holes:
                cells[2].append(f"s({i},{j})")
                faces[(2, f"s({i},{j})")] = {
                    (1, 0): f"v({i},{j})",
                    (1, 1): f"v({i + 1},{j})",
                    (2, 0): f"h({i},{j})",
                    (2, 1): f"h({i},{j + 1})",
                }
    return cells, faces


def path_tables(length: int) -> tuple[dict, dict]:
    """A directed path x0 -> x1 -> ... of the given number of edges."""
    cells = {0: [f"x{t}" for t in range(length + 1)], 1: [f"e{t}" for t in range(length)]}
    faces = {(1, f"e{t}"): {(1, 0): f"x{t}", (1, 1): f"x{t + 1}"} for t in range(length)}
    return cells, faces


def cell_count(cells: dict) -> int:
    return sum(len(ids) for ids in cells.values())


def grid_class_count(holes) -> int:
    """Dihomotopy classes between the corners of a grid with holes.

    A grid with holes has one minimal and one maximal vertex, and its
    classes correspond to the hole sets closed under "(i', j') belongs
    whenever (i, j) does and i' >= i, j' <= j"."""
    holes = list(holes)
    count = 0
    for r in range(len(holes) + 1):
        for subset in itertools.combinations(holes, r):
            chosen = set(subset)
            if all(
                (i2, j2) in chosen
                for (i, j) in chosen
                for (i2, j2) in holes
                if i2 >= i and j2 <= j
            ):
                count += 1
    return count


def expected_table_ok(minimals, maximals, counts, first, last, classes) -> bool:
    """True iff an FBG answer has exactly the extremal vertices `first`
    and `last` and `classes` dihomotopy classes between them. `counts`
    lists (from id, to id, count, number of representatives)."""
    return (
        list(minimals) == [first]
        and list(maximals) == [last]
        and list(counts) == [(first, last, classes, classes)]
    )


def write_document(cells: dict, faces: dict, order) -> str:
    """A pcsv1 document whose records come in the given (degree, id) order."""
    lines = ["pcsv1"]
    for degree, cid in order:
        table = faces.get((degree, cid), {})
        parts = [str(degree), cid] + [f"d{i}_{k}={table[(i, k)]}" for (i, k) in sorted(table)]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def document_cell_count(text: str) -> int:
    """Number of cell records in a pcsv1 document whose faces all name
    a record of the degree below; -1 if a face dangles."""
    records = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#") and line != "pcsv1":
            records.append(line.split())
    present = {(int(r[0]), r[1]) for r in records}
    for r in records:
        degree = int(r[0])
        for token in r[2:]:
            key, _, value = token.partition("=")
            if key.startswith("d") and (degree - 1, value) not in present:
                return -1
    return len(records)


def mapping_is_isomorphism(mapping, p_cells, p_faces, q_cells, q_faces) -> bool:
    """True iff `mapping` (CellRef -> CellRef) is a bijection from the
    cells of P onto those of Q in each degree that commutes with every
    face: mapping(d_i^k p) = d_i^k mapping(p)."""
    pairs = {(p.degree, p.id): (q.degree, q.id) for p, q in mapping.items()}
    p_all = {(d, c) for d, ids in p_cells.items() for c in ids}
    q_all = {(d, c) for d, ids in q_cells.items() for c in ids}
    if set(pairs) != p_all or len(pairs) != len(mapping):
        return False
    images = list(pairs.values())
    if set(images) != q_all or len(set(images)) != len(images):
        return False
    if any(p[0] != q[0] for p, q in pairs.items()):
        return False
    for (degree, cid), table in p_faces.items():
        q_table = q_faces[pairs[(degree, cid)]]
        for key, face in table.items():
            if pairs[(degree - 1, face)] != (degree - 1, q_table[key]):
                return False
    return True
