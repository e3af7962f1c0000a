"""Outside-in tracing: timing wrappers installed on the library's public calls.

The library is not edited.  ``Tracer.install`` replaces each layer function
with a wrapper in every ``tflab`` module namespace that holds it (where it is
defined and where another module imported it), wraps the methods that turn
arrays into measured functions, and re-wraps the lazy table builders
(``cached_property``) of ``FiniteAbelianGroup``.  Wrappers record a span
(name, start, end, parent, op) only while an op is active, so correctness
checks run between ops are not traced.  ``uninstall`` puts every original
back.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from functools import cached_property
from time import perf_counter

import numpy as np


def _cells(out) -> int:
    values = getattr(out, "values", out)
    return int(np.size(values))


def _count(key):
    def hook(counts, args, kwargs, out):
        counts[key] += 1
    return hook


def _tables(counts, args, kwargs, out):
    counts["groups.table_builds"] += 1
    counts["groups.table_bytes"] += out.nbytes


def _tfa(counts, args, kwargs, out):
    counts["tfa.calls"] += 1
    counts["tfa.cells"] += _cells(out)


def _rearrangement(counts, args, kwargs, out):
    counts["lorentz.atoms"] += len(args[0] if args else kwargs["f"])
    counts["lorentz.pieces"] += len(out)


def _apply(counts, args, kwargs, out):
    fstar = args[1] if len(args) > 1 else kwargs["fstar"]
    gstar = args[2] if len(args) > 2 else kwargs["gstar"]
    counts["calderon.apply_calls"] += 1
    counts["calderon.piece_pairs"] += len(fstar) * len(gstar)


def _verify(counts, args, kwargs, out):
    counts["verify.trials"] += out.instance.trials
    counts["verify.useful"] += out.instance.trials - out.skipped


def _json(counts, args, kwargs, out):
    counts["serialize.json_bytes"] += len(out)


_TABLES = ("elements", "add_index", "neg_index", "sub_index", "character_table")

#: (owner, attribute, time metric, counter).  The owner is a module or
#: "module:Class"; the layer is the metric's prefix.
TARGETS = tuple(
    [("tflab.groups:FiniteAbelianGroup", t, "groups.table_build_s", _tables) for t in _TABLES]
    + [("tflab.tfa", fn, "tfa.stft_s", _tfa) for fn in ("stft",)]
    + [("tflab.tfa", fn, "tfa.wigner_s", _tfa)
       for fn in ("wigner_tau", "rihaczek", "conjugate_rihaczek")]
    + [("tflab.tfa", fn, "tfa.weyl_s", _tfa) for fn in ("weyl_operator", "weyl_apply")]
    + [("tflab.tfa", fn, "tfa.fourier_s", _tfa) for fn in ("fourier", "fourier_fft")]
    + [("tflab.tfa", fn, "tfa.shift_s", _tfa) for fn in ("tf_shift", "tf_pairing")]
    + [
        ("tflab.tfa:GroupFunction", "to_measured", "lorentz.measure_s", None),
        ("tflab.tfa:TFArray", "to_measured", "lorentz.measure_s", None),
        ("tflab.lorentz", "rearrangement", "lorentz.rearrangement_s", _rearrangement),
        ("tflab.lorentz", "step_halfline_functional", "lorentz.functional_s", None),
        ("tflab.lorentz", "lorentz_norm", "lorentz.norm_s", _count("lorentz.norm_calls")),
        ("tflab.calderon", "calderon_apply", "calderon.apply_s", _apply),
        ("tflab.calderon", "calderon_t_functional", "calderon.t_functional_s",
         _count("calderon.t_functional_calls")),
        ("tflab.verify", "verify_theorem", "verify.self_s", _verify),
        ("tflab.verify", "majorization_check", "verify.self_s", None),
        ("tflab.verify", "sample_functions", "verify.sample_s", None),
        ("tflab.verify", "uncertainty_check", "verify.uncertainty_s", None),
        ("tflab.serialize", "fingerprint", "serialize.fingerprint_s",
         _count("serialize.fingerprint_calls")),
        ("tflab.serialize", "canonical_json", "serialize.fingerprint_s", _json),
    ]
)

LAYERS = ("groups", "tfa", "lorentz", "calderon", "verify", "serialize")
COUNTS = (
    "groups.table_builds", "groups.table_bytes", "tfa.calls", "tfa.cells",
    "lorentz.norm_calls", "lorentz.atoms", "lorentz.pieces",
    "calderon.apply_calls", "calderon.piece_pairs", "calderon.t_functional_calls",
    "verify.trials", "verify.useful", "serialize.fingerprint_calls",
    "serialize.json_bytes",
)


def _span_name(owner: str, attr: str) -> str:
    """"tflab.tfa" + "stft" -> "tfa.stft"; "tflab.tfa:TFArray" -> "tfa.TFArray.to_measured"."""
    return f"{owner.split('.', 1)[1].replace(':', '.')}.{attr}"


#: span name -> time metric key
SPAN_KEYS = {_span_name(owner, attr): key for owner, attr, key, _ in TARGETS}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = sys.modules[module]
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self):
        #: (span name, start, end, parent span index or -1, op id)
        self.spans: list = []
        self.counts = dict.fromkeys(COUNTS, 0.0)
        self.op = None
        self._stack: list = []
        self._patches: list = []  # (namespace owner, attribute, original)

    def _wrap(self, name: str, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, op)
            if count is not None:
                count(counts, args, kwargs, out)
            return out

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "tflab" or name.startswith("tflab.")]
        for owner_name, attr, _, count in TARGETS:
            owner = _resolve(owner_name)
            original = vars(owner)[attr]
            name = _span_name(owner_name, attr)
            if isinstance(original, cached_property):
                new = cached_property(self._wrap(name, original.func, count))
                new.__set_name__(owner, attr)
                self._patch(owner, attr, new)
            elif isinstance(owner, type):
                self._patch(owner, attr, self._wrap(name, original, count))
            else:
                wrapper = self._wrap(name, original, count)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def originals_restored(self) -> bool:
        return all(vars(owner)[attr] is original for owner, attr, original in self._patches)

    # -- derived numbers ------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per metric key: span duration minus its children's."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[SPAN_KEYS[name]] += (end - start) - child[i]
        return out

    def top_level_time(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def metrics(self, n_ops: int, op_wall: float) -> dict:
        """Per-op means of self times and counts, plus each layer's share of
        the traced op wall time."""
        selfs = self.self_times()
        out = {}
        for _, _, key, _ in TARGETS:
            out.setdefault(key, selfs.get(key, 0.0) / n_ops)
        for key, value in self.counts.items():
            out[key] = value / n_ops
        trials = self.counts["verify.trials"]
        out["verify.useful_ratio"] = self.counts["verify.useful"] / trials if trials else 0.0
        del out["verify.useful"]
        for layer in LAYERS:
            layer_self = sum(v for k, v in selfs.items() if k.startswith(layer + "."))
            out[f"{layer}.share"] = layer_self / op_wall
        out["trace.coverage"] = self.top_level_time() / op_wall
        return out
