"""Deterministic serialization helpers shared by CSV and JSON writers."""

from __future__ import annotations

import json
import math

FLOAT_FMT = "%.17g"


def _non_finite(x) -> ValueError:
    return ValueError(f"refusing to serialize non-finite value {float(x)!r}")


def fmt_float(x: float) -> str:
    """Format a float with 17 significant digits (lossless round-trip)."""
    if not math.isfinite(x):
        raise _non_finite(x)
    return FLOAT_FMT % float(x)


def dumps17(obj) -> str:
    """JSON text with floats rendered at 17 significant digits.

    The stdlib json module hard-codes repr() for floats, so this tiny emitter
    exists to keep every numeric byte identical across runs.  Supports dicts
    (insertion order preserved), lists/tuples, str, bool, None, int, float,
    indented by two spaces a level; keys and strings are quoted by
    ``json.dumps``, so any string, control characters included, reads back.
    """
    out: list[str] = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _emit(obj, out: list[str], level: int) -> None:
    pad = "  " * (level + 1)
    end_pad = "  " * level
    if obj is None or isinstance(obj, (bool, str)):
        out.append(json.dumps(obj))
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
            out.append(pad + json.dumps(k) + ": ")
            _emit(v, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(end_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad)
            _emit(v, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(end_pad + "]")
    elif hasattr(obj, "item"):  # numpy scalars and similar
        _emit(obj.item(), out, level)
    else:
        raise TypeError(f"cannot serialize {type(obj)} to JSON")

