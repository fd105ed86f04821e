"""Scripted reduction sequences for grid-with-holes complexes.

The squares are eliminated linewise from the top left to the bottom
right. A square is normally removed with square_one_free and b=1; where
that is blocked (to the right of a hole or of a previously kept edge,
or directly below a hole) the free-face variants take over, preferring
(a, b) = (2, 0) to the right of holes and (1, 1) below them. The
remaining 1-dimensional complex is then simplified by edge collapses,
first with b=0, then with b=1, taking only collapses that keep the
bipartite-graph guarantee. Each phase is one run of the reduction
scheduler on one working copy of the grid. A square phase tries the
three moves of its direction on each square, ranked top-down (downward)
or the reverse (upward); a square that fails waits at its vertices for a
step there. The directions alternate until no square is left, or until
two phases in a row take no step.

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

    P = grid_with_holes(m, n, holes)._adopt()  # every phase patches this grid
    holes = set(holes)
    order = [(i, j) for j in range(n - 1, -1, -1) for i in range(m) if (i, j) not in holes]
    down = {f"s({i},{j})": r for r, (i, j) in enumerate(order)}  # the downward rank
    phases = (([_DOWNWARD_ATTEMPTS], down), ([_UPWARD_ATTEMPTS], {s: -r for s, r in down.items()}))
    steps: list[Step] = []
    phase = stalled = 0
    while P.size(2):
        taken = len(steps)
        steps.extend(map(Step.of, reductions._schedule(P, *phases[phase % 2])))
        stalled = 0 if len(steps) > taken else stalled + 1
        if stalled >= 2:
            left = [(i, j) for (i, j) in order if P.faces_of(2, f"s({i},{j})")]
            raise OutOfRange(f"no square elimination applies to any of {left}")
        phase += 1

    for b in (0, 1):
        steps.extend(map(Step.of, reductions._schedule(P, [((EDGE_COLLAPSE, None, b),)])))
    return steps


_NUMBERS = {"0": 0, "1": 1, "2": 2}  # the parameter values a recipe line can hold


def parse_recipe(text: str) -> list[Step]:
    """Read a recipe file: one `kind cell [a] b` per line, `#` comments.
    A malformed line raises DocumentSyntaxError with its line number."""
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) not in (3, 4):
            raise DocumentSyntaxError(lineno, "expected 'kind cell [a] b'")
        kind, cell, *a, b = tokens
        a = _NUMBERS.get(a[0], a[0]) if a else None
        b = _NUMBERS.get(b, b)
        try:
            reductions._check_params(kind, a, b)
        except OutOfRange as exc:
            raise DocumentSyntaxError(lineno, str(exc)) from None
        steps.append(Step(kind, cell, b, a))
    return steps


def format_recipe(steps) -> str:
    return "\n".join(str(step) for step in steps) + "\n"
