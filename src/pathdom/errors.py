"""Shared exceptions and resource-guard helpers."""

from __future__ import annotations

# Exhaustive routes are refused above this many vertices unless forced.  The
# state-merging engine in pathdom.domination visits at most 3^n states
# (177147 at n = 11); the permutation-pattern enumerations in
# pathdom.extremal still walk all n! orders.
DEFAULT_BRUTE_CAP = 11


class ResourceLimitError(RuntimeError):
    """A computation would exceed a configured resource budget."""


class ConsistencyError(RuntimeError):
    """Two internal computation routes disagree; always a bug, never an input error."""


def check_brute_cap(n: int, cap: int, force: bool, what: str) -> None:
    if n > cap and not force:
        raise ResourceLimitError(
            f"{what} at n={n} exceeds the brute-force cap of {cap}; "
            f"pass force=True (CLI: --force) to run it anyway"
        )
