"""Tests for canonical JSON/CSV emission and fingerprints."""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tflab import (
    FiniteAbelianGroup,
    IndexTuple,
    MeasuredFunction,
    TheoremInstance,
    canonical_json,
    fingerprint,
    load_json,
    sample_functions,
    verify_theorem,
    write_csv,
    write_json,
)
from tflab.serialize import VOLATILE_KEYS, drop_keys, report_csv
from tflab.verify import SAMPLE_KINDS

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
json_data = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


def test_keys_sorted_and_compact() -> None:
    s = canonical_json({"b": 1, "a": {"d": 2, "c": 3}})
    assert s == '{"a":{"c":3,"d":2},"b":1}'


def test_float_formatting_shortest_roundtrip() -> None:
    s = canonical_json({"x": 0.1, "y": 1.0, "z": 1e300})
    parsed = json.loads(s)
    assert parsed["x"] == 0.1 and parsed["y"] == 1.0 and parsed["z"] == 1e300


def test_nonfinite_floats_become_strings() -> None:
    s = canonical_json([math.inf, -math.inf, math.nan])
    assert json.loads(s) == ["inf", "-inf", "nan"]


def test_numpy_scalars_and_arrays() -> None:
    obj = {
        "i": np.int64(7),
        "f": np.float64(0.5),
        "b": np.True_,
        "arr": np.array([1.0, 2.0]),
        "c": np.complex128(1 + 2j),
    }
    parsed = json.loads(canonical_json(obj))
    assert parsed == {"i": 7, "f": 0.5, "b": True, "arr": [1.0, 2.0], "c": [1.0, 2.0]}


def test_fraction_and_complex_forms() -> None:
    parsed = json.loads(canonical_json({"q": Fraction(3, 2), "z": 1 - 1j}))
    assert parsed["q"] == "3/2"
    assert parsed["z"] == [1.0, -1.0]


def test_rejects_non_string_keys_and_unknown_types() -> None:
    with pytest.raises(TypeError):
        canonical_json({1: "x"})
    with pytest.raises(TypeError):
        canonical_json({"x": object()})


def test_write_and_load_roundtrip(tmp_path) -> None:
    path = str(tmp_path / "out.json")
    obj = {"a": [1, 2.5, None, True], "b": "text"}
    write_json(path, obj)
    raw = open(path).read()
    assert raw.endswith("\n")
    assert load_json(path) == obj


@settings(max_examples=100, deadline=None)
@given(json_data)
def test_canonical_json_roundtrip_property(obj) -> None:
    assert json.loads(canonical_json(obj)) == obj


def test_drop_keys_recursive() -> None:
    obj = {"runtime_ms": 12, "inner": [{"runtime_ms": 3, "keep": 1}], "keep": 2}
    out = drop_keys(obj)
    assert out == {"inner": [{"keep": 1}], "keep": 2}


def test_fingerprint_ignores_volatile_keys_and_order() -> None:
    a = {"x": 1, "runtime_ms": 5.0, "y": [1, 2]}
    b = {"y": [1, 2], "x": 1, "runtime_ms": 99.0}
    assert fingerprint(a) == fingerprint(b)
    assert len(fingerprint(a)) == 12
    assert fingerprint({"x": 2}) != fingerprint({"x": 1})


def test_report_csv_rows() -> None:
    report = {
        "trials": [
            {"trial": 0, "ratio": 0.5, "fingerprint_f": "aa", "fingerprint_g": "bb"},
            {"trial": 1, "ratio": math.inf, "fingerprint_f": "cc", "fingerprint_g": "dd"},
        ]
    }
    text = report_csv(report)
    lines = text.strip().split("\n")
    assert lines[0].split(",") == ["trial", "ratio", "fingerprint_f", "fingerprint_g"]
    assert lines[1].startswith("0,0.5")
    assert lines[2].startswith("1,inf")


def test_report_csv_empty_trials(tmp_path) -> None:
    path = str(tmp_path / "rows.csv")
    write_csv(path, {"trials": []})
    lines = open(path).read().strip().split("\n")
    assert lines == ["trial,ratio,fingerprint_f,fingerprint_g"]


# -- the atom-list writer and the single-pass fingerprint --------------------------


def sha12(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def old_style_json(mf: MeasuredFunction) -> dict:
    """The per-atom dict that atom lists were once written from."""
    return {
        "domain": mf.domain,
        "atoms": [
            [int(i), float(w), [float(v.real), float(v.imag)]]
            for i, w, v in zip(mf.ids, mf.weights, mf.values)
        ],
    }


special_floats = st.one_of(
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
)


@st.composite
def measured_functions(draw) -> MeasuredFunction:
    ids = draw(st.lists(st.integers(-(2**62), 2**62), unique=True, max_size=8))
    n = len(ids)
    weights = draw(
        st.lists(st.floats(min_value=0, exclude_min=True), min_size=n, max_size=n)
    )
    pairs = st.tuples(special_floats, special_floats)
    parts = draw(st.lists(pairs, min_size=n, max_size=n))
    values = [complex(re, im) for re, im in parts]
    quoted = st.sampled_from(['a"b', "c\\d", "Z\u2086\u00d7\u1e90"])
    domain = draw(st.one_of(st.text(max_size=8), quoted))
    return MeasuredFunction(ids, weights, values, domain)


def _large_functions():
    """256-atom functions of every sample kind on Z_4 x Z_8 x Z_8, then the
    gaussian one with only its last imaginary part made non-finite, so that
    the writer falls back after formatting every atom."""
    grp = FiniteAbelianGroup([4, 8, 8])
    mfs = [sample_functions(kind, grp, 3)[0].to_measured() for kind in SAMPLE_KINDS]
    for bad in (math.nan, math.inf, -math.inf):
        values = mfs[0].values.copy()
        values[-1] = complex(values[-1].real, bad)
        mfs.append(MeasuredFunction(mfs[0].ids, mfs[0].weights, values, mfs[0].domain))
    return mfs


_LARGE = _large_functions()


@settings(max_examples=150, deadline=None)
@given(measured_functions())
@example(_LARGE[0])
@example(_LARGE[1])
@example(_LARGE[2])
@example(_LARGE[3])
@example(_LARGE[4])
@example(_LARGE[5])
@example(_LARGE[6])
def test_atom_list_writer_same_bytes(mf) -> None:
    expected = canonical_json(old_style_json(mf))
    assert canonical_json(mf) == expected
    assert canonical_json(mf.to_json()) == expected
    assert fingerprint(mf) == sha12(expected)
    assert fingerprint({"f": [mf], "runtime_ms": 1.0}) == sha12(
        canonical_json({"f": [old_style_json(mf)]})
    )


volatile_data = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(
            st.one_of(st.sampled_from(VOLATILE_KEYS), st.text(max_size=8)),
            children,
            max_size=4,
        ),
    ),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(volatile_data)
def test_fingerprint_is_digest_of_dropped_keys(obj) -> None:
    assert fingerprint(obj) == sha12(canonical_json(drop_keys(obj)))


def test_fingerprint_of_report_objects_skips_volatile_keys() -> None:
    report = verify_theorem(TheoremInstance("t2", (6,), IndexTuple.of(q=3), trials=3))
    assert report.timings_ms.keys() == {"sample", "fingerprint", "trial"}
    for obj in (report, report.to_json(), {"runs": [report, {"runtime_ms": 2.0}]}):
        assert fingerprint(obj) == sha12(canonical_json(drop_keys(obj)))
    text = canonical_json(report)
    assert '"runtime_ms":' in text and '"timings_ms":' in text
