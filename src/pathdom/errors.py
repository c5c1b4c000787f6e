"""Shared exceptions and resource-guard helpers."""

from __future__ import annotations

# The exhaustive engine in pathdom.domination is refused above this many
# vertices unless forced; it keeps at most (independent sets) x (n + 1)
# states (1308 states and 4651 transitions on the 11-vertex path).
DEFAULT_BRUTE_CAP = 11

# The big-integer exact routes are refused above these sizes unless forced.
# On a 2-core Xeon (medians of 3), the worst-case count recurrence takes about
# 1.3 s at n = 1000 (1.1 s at the best bound) and the integer EGFs about 0.5 s;
# the path closed form takes about 0.25 s at n = 20000 and the recurrence 0.4 s.
EXACT_COUNT_CAP = 1000
EXACT_PATH_CAP = 20000

# The up/down-word listing on the path holds all 2^(n-1) words as rows of
# letters packed 8 words a byte and is refused above WORD_LIST_CAP (the
# inverse-bijection pass over odd n through 21 peaks near 36 MB of RSS, 27 MB
# of it numpy, on a 2-core Xeon).  The word census lists no word: its
# one pass over the letters keeps O(n^2) integers and takes O(n^3) big-integer
# additions, 0.6 to 0.75 s at n = WORD_CENSUS_CAP on a 2-core Xeon.
WORD_LIST_CAP = 21
WORD_CENSUS_CAP = 200

# The CLI builds a graph as adjacency tuples, about 190 bytes and 1.2 us per
# vertex or edge at its peak, and refuses one past GRAPH_SIZE_CAP vertices
# plus edges, worked out from the family's arguments before anything is
# allocated: about 190 MB and 1.2 s on a 2-core Xeon.
GRAPH_SIZE_CAP = 1_000_000


class ResourceLimitError(RuntimeError):
    """A computation would exceed a configured resource budget."""


class ConsistencyError(RuntimeError):
    """Two internal computation routes disagree; always a bug, never an input error."""


def check_cap(size: int, cap: int, force: bool, what: str, measure: str = "n") -> None:
    """Refuse `what` when `size`, the value of `measure`, exceeds `cap`, unless forced.

    Callers pass a module constant as `cap`, read when they are called, and
    `force` is the one override.
    """
    if size > cap and not force:
        raise ResourceLimitError(
            f"{what} at {measure} = {size} exceeds its cap of {cap}; "
            f"pass force=True (CLI: --force) to run it anyway"
        )
