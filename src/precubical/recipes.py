"""Scripted reduction sequences for grid-with-holes complexes.

The squares are eliminated linewise from the top left to the bottom
right. A square is normally removed with square_one_free and b=1; where
that is blocked (to the right of a hole or of a previously kept edge,
or directly below a hole) the free-face variants take over, preferring
(a, b) = (2, 0) to the right of holes and (1, 1) below them. The
remaining 1-dimensional complex is then simplified by edge collapses,
first with b=0, then with b=1, taking only collapses that keep the
bipartite-graph guarantee; each phase is the greedy scheduler with a
one-entry attempt table.

The generator simulates the sequence while producing it, so a returned
recipe replays step by step from the original complex with every side
condition satisfied.
"""

from __future__ import annotations

from . import reductions
from .errors import DocumentSyntaxError, OutOfRange
from .reductions import (
    EDGE_COLLAPSE,
    SQUARE_ONE_FREE,
    SQUARE_TWO_FREE,
    Step,
)

# Per-square preference orders for the two sweep directions.
_DOWNWARD_ATTEMPTS = (
    (SQUARE_ONE_FREE, None, 1),
    (SQUARE_TWO_FREE, 2, 0),
    (SQUARE_TWO_FREE, 1, 1),
)
_UPWARD_ATTEMPTS = (
    (SQUARE_ONE_FREE, None, 0),
    (SQUARE_TWO_FREE, 2, 1),
    (SQUARE_TWO_FREE, 1, 0),
)


def grid_reduction_recipe(m: int, n: int, holes=()) -> list[Step]:
    """A full reduction recipe for grid_with_holes(m, n, holes)."""
    from .modelio import grid_with_holes

    P = grid_with_holes(m, n, holes)._copy()  # the sweeps patch this copy
    holes = set(holes)
    steps: list[Step] = []

    remaining = [
        (i, j)
        for j in range(n - 1, -1, -1)
        for i in range(m)
        if (i, j) not in holes
    ]

    def sweep(order, attempts):
        done = set()
        for (i, j) in order:
            sid = f"s({i},{j})"
            for kind, a, b in attempts:
                cert = reductions.check(P, kind, sid, a, b)
                if cert.all_conditions_hold and cert.fbg_guaranteed:
                    P._patch(cert.removed, cert.redirected)
                    steps.append(Step(kind, sid, b, a))
                    done.add((i, j))
                    break
        return done

    # Alternate a top-down-left-right sweep with a bottom-up-right-left
    # one; squares blocked in one direction fall to the other.
    downward = True
    stalled = 0
    while remaining:
        order = remaining if downward else remaining[::-1]
        attempts = _DOWNWARD_ATTEMPTS if downward else _UPWARD_ATTEMPTS
        done = sweep(order, attempts)
        remaining = [sq for sq in remaining if sq not in done]
        stalled = 0 if done else stalled + 1
        if stalled >= 2:
            raise OutOfRange(
                f"no square elimination applies to any of {remaining}"
            )
        downward = not downward

    for b in (0, 1):
        P, trail = reductions.greedy_reduce(P, ((EDGE_COLLAPSE, None, b),))
        steps.extend(Step(EDGE_COLLAPSE, cert.cell.id, b) for cert in trail)
    return steps


def parse_recipe(text: str) -> list[Step]:
    """Read a recipe file: one `kind cell [a] b` per line, `#` comments.
    A malformed line raises DocumentSyntaxError with its line number."""
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) == 3:
            kind, cell, b = tokens
            a = None
        elif len(tokens) == 4:
            kind, cell, a, b = tokens
        else:
            raise DocumentSyntaxError(lineno, "expected 'kind cell [a] b'")
        if kind not in (EDGE_COLLAPSE, SQUARE_ONE_FREE, SQUARE_TWO_FREE):
            raise DocumentSyntaxError(lineno, f"unknown kind {kind!r}")
        if (a is None) != (kind != SQUARE_TWO_FREE):
            raise DocumentSyntaxError(
                lineno, f"{kind} takes {'a and b' if a is None else 'only b'}"
            )
        if a not in (None, "1", "2"):
            raise DocumentSyntaxError(lineno, f"a must be 1 or 2, not {a!r}")
        if b not in ("0", "1"):
            raise DocumentSyntaxError(lineno, f"b must be 0 or 1, not {b!r}")
        steps.append(Step(kind, cell, int(b), None if a is None else int(a)))
    return steps


def format_recipe(steps) -> str:
    return "\n".join(str(step) for step in steps) + "\n"
