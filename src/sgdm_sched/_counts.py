"""The package's one rule for counts and seeds: a whole number is taken as
an int, anything else is refused, never truncated."""

from __future__ import annotations


def _whole(value) -> int | None:
    """``value`` as an int if it is a whole number (2, 2.0, np.uint64(2)),
    else None (2.5, NaN, inf, None, "2")."""
    try:
        w = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return w if w == value else None


def _count(value, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as an int if it is a whole number in [lo, hi), lo or hi None
    for no bound on that side (a given hi is a power of two and comes with a
    lo); else ValueError: 2.5 is refused, not truncated."""
    w = _whole(value)
    if w is None or lo is not None and w < lo or hi is not None and w >= hi:
        where = ("" if lo is None else f" >= {lo}" if hi is None
                 else f" in [{lo}, 2**{hi.bit_length() - 1})")
        raise ValueError(f"{what} must be a whole number{where}, got {value!r}")
    return w
