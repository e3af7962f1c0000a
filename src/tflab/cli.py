"""Command-line front end: transforms, norms, verification runs, baselines.

Exit codes: 0 on success with every requested check passing, 1 when an
inequality check fails beyond tolerance or a baseline drifts, 2 on usage
or parse errors.  All numeric output is deterministic per seed.  A JSON
config file may supply flag defaults, keyed by flag name (explicit flags
win, and a key that names no flag is a usage error); the TFLAB_SEED
environment variable supplies the seed when neither flag nor config does.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields
from typing import Any, Dict, Optional, Sequence

import numpy as np

from .calderon import (
    ETA_SEPARABLE,
    ETA_SQRT_MIN,
    EtaSet,
    calderon_apply,
    calderon_t_functional,
)
from .exponents import format_exponent, parse_exponent
from .groups import FiniteAbelianGroup, GroupEndomorphism, parse_group
from .lorentz import StepFunction
from .serialize import canonical_json, load_json, write_csv, write_json
from .tfa import (
    GroupFunction,
    TFArray,
    fourier_fft,
    rihaczek,
    stft,
    weyl_apply,
    weyl_operator,
    wigner_tau,
)
from .verify import (
    IndexTuple,
    TheoremInstance,
    compute_baselines,
    extremizer_search,
    uncertainty_check,
    verify_theorem,
)

__all__ = ["build_parser", "main"]

SUBCOMMANDS = (
    "group-info",
    "norm",
    "fourier",
    "stft",
    "wigner",
    "weyl",
    "calderon",
    "verify",
    "extremize",
    "uncertainty",
    "baseline",
)

#: Built-in default seed, overridable by config file, env, then flags.
DEFAULT_SEED = TheoremInstance.seed


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _read_json(path: str) -> Any:
    try:
        return load_json(path)
    except ValueError as exc:  # json.JSONDecodeError
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _read_object(path: str, *keys: str) -> dict:
    """The JSON object in path, which must hold every one of keys."""
    obj = _read_json(path)
    for key in keys:
        if not (isinstance(obj, dict) and key in obj):
            raise ValueError(f"{path}: expected a JSON object with the key {key!r}")
    return obj


def _is_real(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _load_values(path: str, n: int) -> np.ndarray:
    """Complex values from a function file {"values": [...]}, each entry
    [re, im] or a real number."""
    obj = _read_json(path)
    if not (isinstance(obj, dict) and isinstance(obj.get("values"), list)):
        raise ValueError(
            f'{path}: expected a function file {{"values": [[re, im] or x, ...]}}'
        )
    entries = obj["values"]
    for k, c in enumerate(entries):
        pair = isinstance(c, list) and len(c) == 2 and all(map(_is_real, c))
        if not (pair or _is_real(c)):
            raise ValueError(
                f"{path}: values[{k}] must be [re, im] or a real number,"
                f" got {json.dumps(c)}"
            )
    values = np.array([complex(*c) if isinstance(c, list) else complex(c) for c in entries])
    if values.size != n:
        raise ValueError(
            f"{path}: expected {n} values for the group, found {values.size}"
        )
    return values


def _dump_values(values: np.ndarray) -> dict:
    return {"values": [[float(z.real), float(z.imag)] for z in np.ravel(values)]}


def _load_step(path: str) -> StepFunction:
    obj = _read_object(path, "breaks", "values")
    try:
        return StepFunction.from_json(obj, monotone=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parse_tau(group: FiniteAbelianGroup, spec: Optional[str]) -> GroupEndomorphism:
    if spec is None:
        return GroupEndomorphism.identity(group)
    rows = [
        [int(cell) for cell in row.split(",") if cell.strip() != ""]
        for row in spec.split(";")
    ]
    return GroupEndomorphism(group, rows)


def _resolve_seed(args: argparse.Namespace) -> int:
    seed = getattr(args, "seed", None)
    if seed is not None:
        return int(seed)
    env = os.environ.get("TFLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"TFLAB_SEED must be an integer, got {env!r}") from exc
    return DEFAULT_SEED


def _emit(args: argparse.Namespace, payload: dict) -> None:
    out = getattr(args, "out", None)
    if out:
        write_json(out, payload)
    else:
        print(canonical_json(payload))


# -- subcommand handlers ----------------------------------------------------------


def _cmd_group_info(args: argparse.Namespace) -> int:
    grp = parse_group(args.group, haar_weight=args.weight)
    payload = {
        "orders": list(grp.orders),
        "size": grp.size,
        "haar_weight": grp.haar_weight,
        "dual_weight": grp.dual_weight,
        "total_measure": grp.measure(grp.size),
    }
    _emit(args, payload)
    return 0


def _cmd_norm(args: argparse.Namespace) -> int:
    grp = parse_group(args.group, haar_weight=args.weight)
    f = GroupFunction(grp, _load_values(args.input, grp.size))
    print(canonical_json(f.lorentz_norm(args.p, args.q)))
    return 0


def _cmd_fourier(args: argparse.Namespace) -> int:
    grp = parse_group(args.group, haar_weight=args.weight)
    f = GroupFunction(grp, _load_values(args.input, grp.size))
    _emit(args, _dump_values(fourier_fft(f).values))
    return 0


def _cmd_stft(args: argparse.Namespace) -> int:
    grp = parse_group(args.group, haar_weight=args.weight)
    f = GroupFunction(grp, _load_values(args.input, grp.size))
    g = GroupFunction(grp, _load_values(args.window, grp.size))
    v = stft(f, g)
    payload = _dump_values(v.values)
    payload["shape"] = list(v.values.shape)
    payload["l2_norm"] = v.l2_norm()
    _emit(args, payload)
    return 0


def _cmd_wigner(args: argparse.Namespace) -> int:
    grp = parse_group(args.group, haar_weight=args.weight)
    f = GroupFunction(grp, _load_values(args.input, grp.size))
    g = GroupFunction(grp, _load_values(args.window, grp.size))
    if args.tau is None:
        w = rihaczek(f, g)
    else:
        w = wigner_tau(f, g, _parse_tau(grp, args.tau))
    payload = _dump_values(w.values)
    payload["shape"] = list(w.values.shape)
    _emit(args, payload)
    return 0


def _cmd_weyl(args: argparse.Namespace) -> int:
    grp = parse_group(args.group, haar_weight=args.weight)
    phi = TFArray(
        grp, _load_values(args.symbol, grp.size * grp.size).reshape(grp.size, -1)
    )
    k = weyl_operator(phi, _parse_tau(grp, args.tau))
    f = GroupFunction(grp, _load_values(args.input, grp.size))
    _emit(args, _dump_values(weyl_apply(k, f).values))
    return 0


def _make_eta(spec: str) -> EtaSet:
    """canonical (sqrt-min), separable, or triples 'a,b,c;a,b,c;...'."""
    if spec == "canonical":
        return ETA_SQRT_MIN
    if spec == "separable":
        return ETA_SEPARABLE
    rows = [tuple(part.strip() for part in row.split(",")) for row in spec.split(";")]
    if any(len(row) != 3 for row in rows):
        raise ValueError(
            f"--eta takes canonical, separable or triples 'a,b,c;a,b,c;...', got {spec!r}"
        )
    return EtaSet(rows)


def _cmd_calderon(args: argparse.Namespace) -> int:
    eta = _make_eta(args.eta)
    fstar = _load_step(args.f)
    gstar = _load_step(args.g)
    payload: Dict[str, Any] = {
        "eta": [[format_exponent(e) for e in triple] for triple in eta.triples]
    }
    if args.t:
        values = calderon_apply(eta, fstar, gstar, np.array(args.t)).tolist()
        payload["values"] = [{"t": t, "value": v} for t, v in zip(args.t, values)]
    if args.q is not None:
        w = args.w if args.w is not None else "inf"
        payload["t_functional"] = calderon_t_functional(
            fstar, gstar, args.q, w, eta=eta
        )
    if "values" not in payload and "t_functional" not in payload:
        raise ValueError("nothing to compute: pass --t values and/or --q/--w")
    _emit(args, payload)
    return 0


def _build_instance(args: argparse.Namespace) -> TheoremInstance:
    indices = IndexTuple.of(
        **{
            slot.name: getattr(args, slot.name)
            for slot in fields(IndexTuple)
            if getattr(args, slot.name, None) is not None
        }
    )
    tau = None
    if args.tau is not None:
        grp = parse_group(args.group)
        tau = tuple(
            tuple(int(m) for m in row) for row in _parse_tau(grp, args.tau).matrix
        )
    return TheoremInstance(
        theorem=args.theorem,
        group=tuple(parse_group(args.group).orders),
        indices=indices,
        tau=tau,
        trials=args.trials if args.trials is not None else TheoremInstance.trials,
        seed=_resolve_seed(args),
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    instance = _build_instance(args)
    report = verify_theorem(instance)
    payload = report.to_json()
    if args.out:
        write_json(args.out, payload)
    if args.csv:
        write_csv(args.csv, payload)
    if not args.out and not args.csv:
        print(canonical_json(payload))
    else:
        print(
            f"{instance.theorem}: {len(report.trials)} trials,"
            f" {report.skipped} skipped, max ratio {report.max_ratio:.12g},"
            f" {len(report.violations)} violations"
        )
    return 1 if report.violations else 0


def _cmd_extremize(args: argparse.Namespace) -> int:
    instance = _build_instance(args)
    best, f, g = extremizer_search(instance, args.budget)
    payload = {
        "best_ratio": best,
        "f": _dump_values(f.values)["values"],
        "g": _dump_values(g.values)["values"],
        "instance": instance.to_json(),
    }
    _emit(args, payload)
    return 0


def _parse_omega(spec: str, grp: FiniteAbelianGroup, seed: int) -> np.ndarray:
    """The boolean (|G|, |G|) mask of Omega; listed points reduce mod |G|."""
    n = grp.size
    malformed = ValueError(
        f"--omega takes 'x,xi;x,xi;...' (integers), 'all' or "
        f"'random:<density>', got {spec!r}"
    )
    if spec == "all":
        return np.ones((n, n), dtype=bool)
    if spec.startswith("random:"):
        try:
            density = float(spec.split(":", 1)[1])
        except ValueError:
            raise malformed from None
        if not 0 < density <= 1:
            raise ValueError(f"omega density must lie in (0, 1], got {density}")
        rng = np.random.default_rng(seed)
        mask = rng.random((n, n)) < density
        mask[int(rng.integers(n)), int(rng.integers(n))] = True
        return mask
    mask = np.zeros((n, n), dtype=bool)
    try:
        for row in spec.split(";"):
            x, xi = row.split(",")
            mask[int(x) % n, int(xi) % n] = True
    except ValueError:
        raise malformed from None
    return mask


def _cmd_uncertainty(args: argparse.Namespace) -> int:
    grp = parse_group(args.group, haar_weight=args.weight)
    f = GroupFunction(grp, _load_values(args.input, grp.size))
    g = GroupFunction(grp, _load_values(args.window, grp.size))
    omega = _parse_omega(args.omega, grp, _resolve_seed(args))
    eps, lhs, rhs, bound, holds = uncertainty_check(f, g, omega, args.q, args.u, args.v)
    _emit(
        args,
        {
            "epsilon": eps,
            "chain_lhs": lhs,
            "chain_rhs": rhs,
            "measure_lower_bound": bound,
            "omega_measure": int(omega.sum()) * grp.haar_weight * grp.dual_weight,
            "holds": holds,
        },
    )
    return 0 if holds else 1


def _baseline_path() -> str:
    return os.path.join(os.path.dirname(__file__), "data", "baselines.json")


def _cmd_baseline(args: argparse.Namespace) -> int:
    path = args.path or _baseline_path()
    if args.write:
        values = compute_baselines()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_json(path, {"seed": DEFAULT_SEED, "entries": values})
        print(f"wrote {len(values)} baselines to {path}")
        return 0
    try:
        stored = _read_object(path, "entries")["entries"]
    except OSError:
        return _fail(f"cannot read baseline file {path}")
    if not (isinstance(stored, dict) and all(map(_is_real, stored.values()))):
        return _fail(f"{path}: 'entries' must map each baseline id to a number")
    values = compute_baselines()
    drifted = []
    worst = 0.0
    for key, value in sorted(values.items()):
        old = stored.get(key)
        scale = max(abs(value), abs(old) if old is not None else 0.0, 1e-30)
        diff = abs(value - old) if old is not None else math.inf
        ok = diff <= args.tolerance * scale
        drift = diff / scale
        # max() keeps a NaN it already holds, so a NaN drift stays visible
        worst = drift if math.isnan(drift) else max(worst, drift)
        print(f"{key}: computed {value:.12g} stored {old} relative drift"
              f" {drift:.3e} {'ok' if ok else 'DRIFT'}")
        if not ok:
            drifted.append(key)
    print(f"max relative drift: {worst:.3e} (tolerance {args.tolerance:.1e})")
    missing = sorted(set(stored) - set(values))
    if missing:
        print(f"stored entries not recomputed: {missing}")
    return 1 if drifted or missing else 0


# -- parser ------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--group", required=True, help="group spec, e.g. 12 or 4x6")
    sub.add_argument("--weight", type=float, default=1.0, help="Haar weight per point")
    sub.add_argument("--out", help="write canonical JSON here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    # no abbreviated flags: "--s" would silently mean "--seed"
    parser = argparse.ArgumentParser(
        prog="tflab",
        allow_abbrev=False,
        description="Time-frequency transforms and inequality checks on"
        " finite abelian groups.",
    )
    parser.add_argument("--config", help="JSON file of flag defaults (flags win)")
    subs = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    sub = subs.add_parser("group-info", allow_abbrev=False,
                          help="describe a group and its dual")
    _add_common(sub)
    sub.set_defaults(func=_cmd_group_info)

    sub = subs.add_parser("norm", allow_abbrev=False,
                          help="Lorentz quasi-norm of a function file")
    _add_common(sub)
    sub.add_argument("--input", required=True, help="function JSON (values)")
    sub.add_argument("--p", required=True, type=parse_exponent, help="first exponent")
    sub.add_argument("--q", required=True, type=parse_exponent, help="second exponent")
    sub.set_defaults(func=_cmd_norm)

    sub = subs.add_parser("fourier", allow_abbrev=False,
                          help="Fourier transform of a function file")
    _add_common(sub)
    sub.add_argument("--input", required=True, help="function JSON (values)")
    sub.set_defaults(func=_cmd_fourier)

    sub = subs.add_parser("stft", allow_abbrev=False, help="short-time Fourier transform")
    _add_common(sub)
    sub.add_argument("--input", required=True, help="function JSON (values)")
    sub.add_argument("--window", required=True, help="window JSON (values)")
    sub.set_defaults(func=_cmd_stft)

    sub = subs.add_parser("wigner", allow_abbrev=False,
                          help="two-window Wigner-type transform")
    _add_common(sub)
    sub.add_argument("--input", required=True, help="function JSON (values)")
    sub.add_argument("--window", required=True, help="window JSON (values)")
    sub.add_argument("--tau", help="integer matrix, rows ; separated (omit for"
                     " the Rihaczek case)")
    sub.set_defaults(func=_cmd_wigner)

    sub = subs.add_parser("weyl", allow_abbrev=False,
                          help="apply a quantized symbol to a function")
    _add_common(sub)
    sub.add_argument("--symbol", required=True, help="|G|x|G| symbol value file")
    sub.add_argument("--input", required=True, help="function JSON (values)")
    sub.add_argument("--tau", help="integer matrix (default: identity)")
    sub.set_defaults(func=_cmd_weyl)

    sub = subs.add_parser("calderon", allow_abbrev=False,
                          help="bilinear kernel operator on step rearrangements")
    sub.add_argument(
        "--eta",
        default="canonical",
        help="kernel: canonical (sqrt-min), separable, or triples 'a,b,c;a,b,c;...'",
    )
    sub.add_argument("--f", required=True, help="step-function JSON (breaks/values)")
    sub.add_argument("--g", required=True, help="step-function JSON (breaks/values)")
    sub.add_argument("--t", type=float, action="append",
                     help="evaluation point (repeatable)")
    sub.add_argument("--q", type=parse_exponent, help="first exponent of the"
                     " half-line functional")
    sub.add_argument("--w", type=parse_exponent, help="second exponent (default inf)")
    sub.add_argument("--out", help="write canonical JSON here instead of stdout")
    sub.set_defaults(func=_cmd_calderon)

    for name in ("verify", "extremize"):
        sub = subs.add_parser(
            name,
            allow_abbrev=False,
            help="run randomized inequality trials"
            if name == "verify"
            else "hill-climb for near-extremal pairs",
        )
        sub.add_argument("--theorem", required=True, help="catalog name, e.g. t1")
        sub.add_argument("--group", required=True, help="group spec, e.g. 12 or 4x6")
        for slot in fields(IndexTuple):
            sub.add_argument(f"--{slot.name}", type=parse_exponent)
        sub.add_argument("--tau", help="integer matrix, rows ; separated")
        sub.add_argument("--trials", type=int, help="sample pairs to draw")
        sub.add_argument("--seed", type=int, help="instance seed (default 42)")
        if name == "verify":
            sub.add_argument("--out", help="report JSON path")
            sub.add_argument("--csv", help="per-trial CSV path")
            sub.set_defaults(func=_cmd_verify)
        else:
            sub.add_argument("--budget", type=int, default=500,
                             help="proposals (ratio evaluations) after the sweep;"
                             " a run is a prefix of every longer one")
            sub.add_argument("--out", help="write canonical JSON here instead of stdout")
            sub.set_defaults(func=_cmd_extremize)

    sub = subs.add_parser("uncertainty", allow_abbrev=False,
                          help="spectrogram concentration chain")
    _add_common(sub)
    sub.add_argument("--input", required=True, help="function JSON (values)")
    sub.add_argument("--window", required=True, help="window JSON (values)")
    sub.add_argument("--q", required=True, type=parse_exponent, help="chain exponent in (2, inf)")
    sub.add_argument("--u", type=parse_exponent, default=1, help="window exponent in [1, inf]")
    sub.add_argument("--v", type=parse_exponent, default=1, help="window exponent in [1, inf]")
    sub.add_argument("--omega", default="all",
                     help="'all', 'random:<density>', or 'x,xi;x,xi;...'")
    sub.add_argument("--seed", type=int, help="seed for random omega")
    sub.set_defaults(func=_cmd_uncertainty)

    sub = subs.add_parser("baseline", allow_abbrev=False,
                          help="recompute and compare regression baselines")
    sub.add_argument("--write", action="store_true",
                     help="overwrite the stored baseline file")
    sub.add_argument("--path", help="baseline file (default: packaged data)")
    sub.add_argument("--tolerance", type=float, default=1e-9,
                     help="relative drift allowance")
    sub.set_defaults(func=_cmd_baseline)

    return parser


def _subparsers(parser: argparse.ArgumentParser) -> Dict[str, argparse.ArgumentParser]:
    """Subcommand name -> its parser, as argparse's subparsers action holds them."""
    return next(a for a in parser._actions if a.dest == "subcommand").choices


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()

    config: Dict[str, Any] = {}
    if "--config" in argv:
        at = argv.index("--config")
        if at + 1 >= len(argv):
            return _fail("--config requires a path")
        try:
            config = _read_json(argv[at + 1])
        except OSError:
            return _fail(f"cannot read config file {argv[at + 1]}")
        except ValueError as exc:
            return _fail(f"config file {exc}")
        if not isinstance(config, dict):
            return _fail("config file must hold a JSON object of flag defaults")
        subparsers = _subparsers(parser).values()
        flags = {
            action.dest
            for sub in subparsers
            for action in sub._actions
            if action.option_strings and action.dest != "help"
        }
        unknown = sorted(set(config) - flags)
        if unknown:
            return _fail(f"config keys that name no flag: {unknown}")
        parser.set_defaults(**config)
        for sub in subparsers:
            sub.set_defaults(**config)
            # a config-supplied value satisfies a required flag
            for action in sub._actions:
                if action.required and action.dest in config:
                    action.required = False

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(f"{exc.filename or 'i/o'}: {exc.strerror or exc}")


if __name__ == "__main__":
    sys.exit(main())
