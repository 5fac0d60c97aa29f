"""Deterministic serialization helpers shared by CSV and JSON writers."""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

FLOAT_FMT = "%.17g"


def _non_finite(x) -> ValueError:
    return ValueError(f"refusing to serialize non-finite value {float(x)!r}")


def fmt_float(x: float) -> str:
    """Format a float with 17 significant digits (lossless round-trip)."""
    if not math.isfinite(x):
        raise _non_finite(x)
    return FLOAT_FMT % float(x)


def csv_rows(columns: Sequence, lead: Sequence[str] | None = None) -> list[str]:
    """CSV lines (without newlines) of equal-length columns, one ``%`` per row.

    Integer and bool columns are written with ``%d``, every other column with
    17 significant digits after one finiteness check per column (a non-finite
    value is a ValueError, as in ``fmt_float``).  ``lead``, when given, is a
    column of already formatted text placed first, e.g. the shared prefix of
    several files.
    """
    fmts, values = [], []
    if lead is not None:
        fmts.append("%s")
        values.append(lead)
    for col in columns:
        col = np.asarray(col)
        if col.dtype.kind in "biu":
            fmts.append("%d")
        else:
            if not np.isfinite(col).all():
                raise _non_finite(col[~np.isfinite(col)][0])
            fmts.append(FLOAT_FMT)
        values.append(col.tolist())
    if len({len(v) for v in values}) > 1:
        raise ValueError("CSV columns differ in length")
    return list(map(",".join(fmts).__mod__, zip(*values)))


def csv_text(header: str, columns: Sequence, lead: Sequence[str] | None = None) -> str:
    """The header line plus ``csv_rows(columns, lead)``, each line ending in a newline."""
    return "\n".join([header, *csv_rows(columns, lead)]) + "\n"


def dumps17(obj, indent: int = 2) -> str:
    """JSON text with floats rendered at 17 significant digits.

    The stdlib json module hard-codes repr() for floats, so this tiny emitter
    exists to keep every numeric byte identical across runs.  Supports dicts
    (insertion order preserved), lists/tuples, str, bool, None, int, float.
    """
    out: list[str] = []
    _emit(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


def _emit(obj, out: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * (level + 1))
    end_pad = " " * (indent * level)
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(fmt_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be str, got {type(k)}")
            out.append(pad + _quote(k) + ": ")
            _emit(v, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(end_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad)
            _emit(v, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(end_pad + "]")
    else:
        # numpy scalars and similar
        if hasattr(obj, "item"):
            _emit(obj.item(), out, indent, level)
        else:
            raise TypeError(f"cannot serialize {type(obj)} to JSON")


def _quote(s: str) -> str:
    escaped = (
        s.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )
    return f'"{escaped}"'
