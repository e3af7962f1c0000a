"""Canonical JSON and CSV emission for reports and function data.

Every artifact this package writes goes through :func:`canonical_json`:
keys sorted, floats printed with 17 significant digits (enough to
round-trip IEEE doubles exactly), non-finite floats as the strings
"inf"/"-inf"/"nan", complex numbers as [re, im] pairs.  Two runs that
compute the same values therefore produce byte-identical files, and
JSON -> parse -> JSON is the identity on emitted bytes.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
from collections.abc import Mapping
from fractions import Fraction
from typing import Any, Sequence

import numpy as np

from .exponents import format_exponent
from .lorentz import MeasuredFunction

__all__ = [
    "canonical_json",
    "fingerprint",
    "drop_keys",
    "load_json",
    "write_json",
    "report_csv",
    "write_csv",
]

#: Keys whose values vary between otherwise identical runs (wall-clock
#: timings); excluded from fingerprints and determinism comparisons.
VOLATILE_KEYS = ("runtime_ms", "timings_ms")


def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


#: One atom of a function's atom list
_ATOM = "[%d,%.17g,[%.17g,%.17g]]"
#: What ``%.17g`` prints for a non-finite float
_NON_FINITE = re.compile(r"-?inf|nan")


def _write_measured(mf: MeasuredFunction, out: io.StringIO) -> None:
    """The bytes of ``_write(mf.to_json())``, from one %-format over the
    interleaved columns of all the atoms.

    ``%.17g`` prints a finite float as :func:`_format_float` does.  Only inf
    and nan print an ``n``, and only they are quoted in canonical JSON, so
    text with an ``n`` gets its non-finite values quoted.
    """
    n = len(mf)
    cols = [None] * (4 * n)
    cols[0::4] = mf.ids.tolist()
    cols[1::4] = mf.weights.tolist()
    cols[2::4] = mf.values.real.tolist()
    cols[3::4] = mf.values.imag.tolist()
    text = ",".join([_ATOM] * n) % tuple(cols)
    if "n" in text:
        text = _NON_FINITE.sub(r'"\g<0>"', text)
    out.write('{"atoms":[')
    out.write(text)
    out.write('],"domain":')
    _write(mf.domain, out)
    out.write("}")


def _write(obj: Any, out: io.StringIO, skip: Sequence[str] = ()) -> None:
    """Write obj's canonical JSON; mapping keys in ``skip`` are left out at
    every depth."""
    if obj is None or isinstance(obj, (bool, np.bool_)):
        out.write(json.dumps(bool(obj) if obj is not None else None))
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(_format_float(float(obj)))
    elif isinstance(obj, Fraction):
        out.write(json.dumps(format_exponent(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        out.write("[")
        out.write(_format_float(z.real))
        out.write(",")
        out.write(_format_float(z.imag))
        out.write("]")
    elif isinstance(obj, str):
        out.write(json.dumps(obj, ensure_ascii=False))
    # lists before the Mapping ABC, whose isinstance check is slower: most
    # nodes of an atom list are lists
    elif isinstance(obj, (list, tuple)):
        out.write("[")
        for j, item in enumerate(obj):
            if j:
                out.write(",")
            _write(item, out, skip)
        out.write("]")
    elif isinstance(obj, Mapping):
        out.write("{")
        for j, key in enumerate(k for k in sorted(obj) if k not in skip):
            if not isinstance(key, str):
                raise TypeError(f"mapping keys must be strings, got {key!r}")
            if j:
                out.write(",")
            out.write(json.dumps(key, ensure_ascii=False))
            out.write(":")
            _write(obj[key], out, skip)
        out.write("}")
    elif isinstance(obj, MeasuredFunction):
        _write_measured(obj, out)
    elif isinstance(obj, np.ndarray):
        _write(obj.tolist(), out)
    elif hasattr(obj, "to_json"):
        _write(obj.to_json(), out, skip)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}: {obj!r}")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text for obj (no trailing newline)."""
    out = io.StringIO()
    _write(obj, out)
    return out.getvalue()


def drop_keys(obj: Any) -> Any:
    """Recursively remove the VOLATILE_KEYS (for stable comparison).

    Objects with a ``to_json`` method are converted first, as
    :func:`canonical_json` would, so their keys are removed too.
    """
    if hasattr(obj, "to_json"):
        obj = obj.to_json()
    if isinstance(obj, (list, tuple)):
        return [drop_keys(item) for item in obj]
    if isinstance(obj, Mapping):
        return {k: drop_keys(v) for k, v in obj.items() if k not in VOLATILE_KEYS}
    return obj


def fingerprint(obj: Any) -> str:
    """12-hex-digit digest of ``canonical_json(drop_keys(obj))``: the
    volatile keys are skipped while writing, with no copy of the tree."""
    out = io.StringIO()
    _write(obj, out, VOLATILE_KEYS)
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()[:12]


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json(obj))
        fh.write("\n")


def _csv_cell(value: Any) -> str:
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return format(x, ".17g")
    text = str(value)
    if any(c in text for c in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def report_csv(report: Mapping[str, Any]) -> str:
    """Flatten a verification report's per-trial rows; one line per
    computed trial (skipped trials contribute no row)."""
    header = ["trial", "ratio", "fingerprint_f", "fingerprint_g"]
    lines = [",".join(header)]
    for row in report.get("trials", []):
        lines.append(
            ",".join(
                _csv_cell(row[key])
                for key in ("trial", "ratio", "fingerprint_f", "fingerprint_g")
            )
        )
    return "\n".join(lines) + "\n"


def write_csv(path: str, report: Mapping[str, Any]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report_csv(report))
