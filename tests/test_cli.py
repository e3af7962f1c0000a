"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from tflab import (
    ETA_SQRT_MIN,
    EtaSet,
    FiniteAbelianGroup,
    GroupFunction,
    StepFunction,
    calderon_apply,
    calderon_t_functional,
    canonical_json,
    fourier,
    load_json,
    write_json,
)
from tflab.cli import DEFAULT_SEED, SUBCOMMANDS, _subparsers, build_parser, main
from tflab.serialize import drop_keys


@pytest.fixture()
def workdir(tmp_path):
    f = tmp_path / "f.json"
    write_json(
        str(f),
        {"values": [[1.0, 0.0], [0.5, 0.5], [0.0, 0.0], [0.25, -0.25], [0.0, 0.0], [1.0, 0.0]]},
    )
    g = tmp_path / "g.json"
    write_json(str(g), {"values": [1.0, 0.5, 0.25, 0.0, 0.0, 0.5]})
    step = tmp_path / "step.json"
    write_json(str(step), StepFunction([1.0, 2.0], [2.0, 1.0], monotone=True).to_json())
    return tmp_path


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_registered_subcommands_complete() -> None:
    parser = build_parser()
    assert set(_subparsers(parser)) == set(SUBCOMMANDS)
    assert len(SUBCOMMANDS) == 11


def test_no_subcommand_is_usage_error(capsys) -> None:
    assert main([]) == 2


def test_unknown_flag_is_usage_error(workdir) -> None:
    assert main(["group-info", "--group", "6", "--frobnicate"]) == 2


def test_group_info_reports_structure(capsys) -> None:
    code, out = run(capsys, "group-info", "--group", "4x6", "--weight", "2.0")
    assert code == 0
    data = json.loads(out)
    assert data["orders"] == [4, 6]
    assert data["size"] == 24
    assert data["haar_weight"] == 2.0
    assert data["dual_weight"] == pytest.approx(1 / 48)


def test_norm_matches_library(capsys, workdir) -> None:
    code, out = run(
        capsys, "norm", "--group", "6", "--input", str(workdir / "f.json"),
        "--p", "2", "--q", "1",
    )
    assert code == 0
    grp = FiniteAbelianGroup([6])
    vals = [1.0, 0.5 + 0.5j, 0.0, 0.25 - 0.25j, 0.0, 1.0]
    expected = GroupFunction(grp, vals).lorentz_norm(2, 1)
    assert json.loads(out) == pytest.approx(expected)


def test_fourier_writes_function_file(capsys, workdir) -> None:
    out_path = workdir / "fhat.json"
    code, _ = run(
        capsys, "fourier", "--group", "6", "--input", str(workdir / "f.json"),
        "--out", str(out_path),
    )
    assert code == 0
    data = load_json(str(out_path))
    grp = FiniteAbelianGroup([6])
    vals = [1.0, 0.5 + 0.5j, 0.0, 0.25 - 0.25j, 0.0, 1.0]
    expected = fourier(GroupFunction(grp, vals)).values
    got = np.array([complex(re, im) for re, im in data["values"]])
    assert np.allclose(got, expected, atol=1e-12)


def test_stft_shape_and_norm(capsys, workdir) -> None:
    code, out = run(
        capsys, "stft", "--group", "6", "--input", str(workdir / "f.json"),
        "--window", str(workdir / "g.json"),
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["values"]) == 36


def test_wigner_defaults_to_rihaczek(capsys, workdir) -> None:
    code_a, out_a = run(
        capsys, "wigner", "--group", "6", "--input", str(workdir / "f.json"),
        "--window", str(workdir / "g.json"),
    )
    code_b, out_b = run(
        capsys, "wigner", "--group", "6", "--input", str(workdir / "f.json"),
        "--window", str(workdir / "g.json"), "--tau", "0",
    )
    assert code_a == code_b == 0
    a, b = json.loads(out_a), json.loads(out_b)
    assert a["shape"] == b["shape"]
    av = np.array([complex(re, im) for re, im in a["values"]])
    bv = np.array([complex(re, im) for re, im in b["values"]])
    assert np.allclose(av, bv, atol=1e-10)


def test_calderon_point_values(capsys, workdir) -> None:
    ts = (0.25, 1.0, 4.0, 37.5)
    args = [a for t in ts for a in ("--t", str(t))]
    code, out = run(
        capsys, "calderon", "--f", str(workdir / "step.json"),
        "--g", str(workdir / "step.json"), *args,
    )
    assert code == 0
    data = json.loads(out)
    sf = StepFunction([1.0, 2.0], [2.0, 1.0], monotone=True)
    assert [entry["t"] for entry in data["values"]] == list(ts)
    # one array evaluation, the same values as one scalar call per t
    assert [entry["value"] for entry in data["values"]] == [
        calderon_apply(ETA_SQRT_MIN, sf, sf, t) for t in ts
    ]


def test_calderon_custom_eta_without_band_form(capsys, workdir) -> None:
    # min(r, sqrt(s)) has no band form, so it goes through the quadrature
    code, out = run(
        capsys, "calderon", "--f", str(workdir / "step.json"),
        "--g", str(workdir / "step.json"), "--eta", "1,0,0;0,1/2,0",
        "--t", "0.5", "--t", "3",
    )
    assert code == 0
    data = json.loads(out)
    assert data["eta"] == [["1", "0", "0"], ["0", "1/2", "0"]]
    sf = StepFunction([1.0, 2.0], [2.0, 1.0], monotone=True)
    eta = EtaSet([(1, 0, 0), (0, "1/2", 0)])
    assert [entry["value"] for entry in data["values"]] == calderon_apply(
        eta, sf, sf, np.array([0.5, 3.0])
    ).tolist()


@pytest.mark.parametrize("argv", [
    ["--eta", "custom"],
    ["--eta", "3e3"],
    ["--eta", "(t2)"],
    ["--eta", "1,0;0,1"],
    ["--eta-triples", "1,0,0;0,1/2,0"],
])
def test_calderon_rejects_removed_eta_spellings(capsys, workdir, argv) -> None:
    step = str(workdir / "step.json")
    assert main(["calderon", "--f", step, "--g", step, "--t", "1", *argv]) == 2


@pytest.mark.parametrize("w", [None, "2"])
def test_calderon_t_functional(capsys, workdir, w) -> None:
    step = str(workdir / "step.json")
    extra = ["--w", w] if w else []
    code, out = run(capsys, "calderon", "--f", step, "--g", step, "--q", "4", *extra)
    assert code == 0
    data = json.loads(out)
    assert "values" not in data
    sf = StepFunction([1.0, 2.0], [2.0, 1.0], monotone=True)
    # w defaults to inf
    assert data["t_functional"] == calderon_t_functional(sf, sf, 4, w or math.inf)


def test_calderon_requires_t_or_functional(workdir) -> None:
    assert main(["calderon", "--f", str(workdir / "step.json"), "--g", str(workdir / "step.json")]) == 2


def test_verify_writes_report_and_csv(capsys, workdir) -> None:
    report_path = workdir / "report.json"
    csv_path = workdir / "report.csv"
    code, out = run(
        capsys, "verify", "--theorem", "t2", "--group", "6", "--q", "3",
        "--trials", "5", "--out", str(report_path), "--csv", str(csv_path),
    )
    assert code == 0
    report = load_json(str(report_path))
    assert report["instance"]["theorem"] == "t2"
    assert len(report["trials"]) == 5
    assert report["violations"] == []
    rows = open(csv_path).read().strip().split("\n")
    assert len(rows) == 6


def test_verify_summary_line(capsys) -> None:
    code, out = run(
        capsys, "verify", "--theorem", "t2", "--group", "6", "--q", "3",
        "--trials", "3",
    )
    assert code == 0
    assert "t2" in out and "max_ratio" in out


def test_verify_inadmissible_is_usage_error(capsys) -> None:
    code = main(
        ["verify", "--theorem", "t1", "--group", "6", "--q", "4", "--p", "2",
         "--u", "1", "--v", "1", "--w", "1"]
    )
    assert code == 2


def test_verify_deterministic_reports(capsys, workdir) -> None:
    a_path, b_path = workdir / "a.json", workdir / "b.json"
    for path in (a_path, b_path):
        code, _ = run(
            capsys, "verify", "--theorem", "t1", "--group", "6", "--q", "4",
            "--p", "3", "--u", "1", "--v", "1", "--w", "1", "--trials", "4",
            "--out", str(path),
        )
        assert code == 0
    a, b = load_json(str(a_path)), load_json(str(b_path))
    assert canonical_json(drop_keys(a)) == canonical_json(drop_keys(b))


def test_config_file_supplies_defaults(capsys, workdir) -> None:
    cfg = workdir / "cfg.json"
    write_json(str(cfg), {"group": "6", "q": "3", "trials": 3})
    code, out = run(
        capsys, "--config", str(cfg), "verify", "--theorem", "t2",
    )
    assert code == 0
    assert "trials=3" in out or '"trials"' in out or "3" in out


def test_flag_overrides_config(capsys, workdir) -> None:
    cfg = workdir / "cfg.json"
    write_json(str(cfg), {"group": "6", "q": "3", "trials": 3, "seed": 7})
    out_path = workdir / "r.json"
    code, _ = run(
        capsys, "--config", str(cfg), "verify", "--theorem", "t2",
        "--seed", "9", "--out", str(out_path),
    )
    assert code == 0
    assert load_json(str(out_path))["instance"]["seed"] == 9


def test_seed_env_variable_used(capsys, workdir, monkeypatch) -> None:
    monkeypatch.setenv("TFLAB_SEED", "31")
    out_path = workdir / "r.json"
    code, _ = run(
        capsys, "verify", "--theorem", "t2", "--group", "6", "--q", "3",
        "--trials", "2", "--out", str(out_path),
    )
    assert code == 0
    assert load_json(str(out_path))["instance"]["seed"] == 31


def test_seed_default_is_42(capsys, workdir, monkeypatch) -> None:
    monkeypatch.delenv("TFLAB_SEED", raising=False)
    out_path = workdir / "r.json"
    code, _ = run(
        capsys, "verify", "--theorem", "t2", "--group", "6", "--q", "3",
        "--trials", "2", "--out", str(out_path),
    )
    assert code == 0
    assert load_json(str(out_path))["instance"]["seed"] == DEFAULT_SEED == 42


def test_extremize_reports_ratio(capsys, workdir) -> None:
    code, out = run(
        capsys, "extremize", "--theorem", "t2", "--group", "6", "--q", "3",
        "--trials", "3", "--budget", "10",
    )
    assert code == 0
    data = json.loads(out)
    assert data["best_ratio"] > 0
    assert len(data["f"]) == 6


def test_extremize_has_no_restarts_flag(capsys) -> None:
    code, _ = run(
        capsys, "extremize", "--theorem", "t2", "--group", "6", "--q", "3",
        "--trials", "3", "--budget", "10", "--restarts", "2",
    )
    assert code == 2


def test_uncertainty_chain_roundtrip(capsys, workdir) -> None:
    code, out = run(
        capsys, "uncertainty", "--group", "6", "--input", str(workdir / "f.json"),
        "--window", str(workdir / "g.json"), "--q", "4", "--omega", "random:0.4",
        "--seed", "3",
    )
    assert code == 0
    data = json.loads(out)
    assert data["holds"] is True
    assert data["chain_lhs"] <= data["chain_rhs"] * (1 + 1e-9)


def test_uncertainty_explicit_omega(capsys, workdir) -> None:
    code, out = run(
        capsys, "uncertainty", "--group", "6", "--input", str(workdir / "f.json"),
        "--window", str(workdir / "g.json"), "--q", "4", "--omega", "0,0;1,2;3,5",
    )
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_uncertainty_omega_measure_counts_each_cell_once(capsys, tmp_path) -> None:
    write_json(str(tmp_path / "f.json"), {"values": [1.0, 0.5, 0.25, 2.0]})
    write_json(str(tmp_path / "g.json"), {"values": [1.0, 0.5, 0.0, 0.25]})
    files = ("--input", str(tmp_path / "f.json"), "--window", str(tmp_path / "g.json"))
    # each cell of Z_4 x Z_4^ has measure 1/4, and (1, 5) reduces to (1, 1)
    code, out = run(capsys, "uncertainty", "--group", "4", *files, "--q", "4",
                    "--omega", "1,1;1,1;1,5")
    assert code == 0
    assert json.loads(out)["omega_measure"] == pytest.approx(0.25)
    code, out = run(capsys, "uncertainty", "--group", "4", *files, "--q", "4")
    assert json.loads(out)["omega_measure"] == pytest.approx(4.0)


@pytest.mark.parametrize("omega", ["1", "1,2;", "1,2,3", "a,b", "random:x"])
def test_uncertainty_malformed_omega_names_the_forms(capsys, workdir, omega) -> None:
    files = ("--input", str(workdir / "f.json"), "--window", str(workdir / "g.json"))
    assert main(["uncertainty", "--group", "6", *files, "--q", "4", "--omega", omega]) == 2
    err = capsys.readouterr().err
    assert f"--omega takes 'x,xi;x,xi;...' (integers), 'all' or 'random:<density>', got {omega!r}" in err


@pytest.mark.parametrize("content", [
    [[1.0, 0.0]] * 6,
    {"atoms": [[i, 1.0, [1.0, 0.0]] for i in range(6)]},
    {"value": [1.0] * 6},
])
def test_function_file_takes_only_the_values_form(capsys, tmp_path, content) -> None:
    path = tmp_path / "f.json"
    write_json(str(path), content)
    assert main(["norm", "--group", "6", "--input", str(path), "--p", "2", "--q", "1"]) == 2
    assert '{"values": [[re, im] or x, ...]}' in capsys.readouterr().err


@pytest.mark.parametrize("entry", [[1.0], None, [1.0, 0.0, 5.0]])
def test_malformed_function_file_entry_is_usage_error(capsys, tmp_path, entry) -> None:
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"values": [[1.0, 0.0]] * 3 + [entry] + [2.0] * 2}))
    assert main(["norm", "--group", "6", "--input", str(path), "--p", "2", "--q", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: values[3] must be [re, im] or a real number")
    assert err.rstrip().endswith(json.dumps(entry))


def test_config_file_that_is_not_json_is_usage_error(capsys, workdir) -> None:
    cfg = workdir / "cfg.json"
    cfg.write_text('{"group": "6",')
    assert main(["--config", str(cfg), "verify", "--theorem", "t2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {cfg} is not valid JSON")
    assert "Traceback" not in err


@pytest.mark.parametrize("content", [[1, 2], {"values": [1]}])
def test_malformed_step_file_is_usage_error(capsys, tmp_path, content) -> None:
    path = tmp_path / "s.json"
    write_json(str(path), content)
    assert main(["calderon", "--f", str(path), "--g", str(path), "--t", "1"]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: expected a JSON object with the key 'breaks'\n"
    )


def test_baseline_file_without_entries_is_usage_error(capsys, tmp_path) -> None:
    path = tmp_path / "base.json"
    write_json(str(path), {"seed": 42})
    assert main(["baseline", "--path", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: expected a JSON object with the key 'entries'\n"
    )


def test_uncertainty_rejects_window_exponent_zero(capsys, workdir) -> None:
    files = ("--input", str(workdir / "f.json"), "--window", str(workdir / "g.json"))
    assert main(["uncertainty", "--group", "6", *files, "--q", "4", "--u", "0", "--v", "4"]) == 2
    assert "u must be >= 1, got 0" in capsys.readouterr().err
    # the default window exponents are u = v = 1
    code, out = run(capsys, "uncertainty", "--group", "6", *files, "--q", "4")
    assert code == 0
    assert run(capsys, "uncertainty", "--group", "6", *files, "--q", "4",
               "--u", "1", "--v", "1") == (code, out)


def test_config_keys_that_name_no_flag_are_usage_errors(capsys, workdir) -> None:
    cfg = workdir / "cfg.json"
    write_json(str(cfg), {"group": "6", "q": "3", "trails": 3, "func": "x"})
    assert main(["--config", str(cfg), "verify", "--theorem", "t2"]) == 2
    assert "config keys that name no flag: ['func', 'trails']" in capsys.readouterr().err


def test_verify_rejects_tolerance_flag(capsys) -> None:
    # verify always judges violations at the library's TOLERANCE
    code, _ = run(capsys, "verify", "--theorem", "t2", "--group", "6", "--q", "3",
                  "--trials", "2", "--tolerance", "0.5")
    assert code == 2
    args = build_parser().parse_args(["baseline", "--tolerance", "1e-9"])
    assert args.tolerance == 1e-9


def test_verify_rejects_inert_index_flags(capsys) -> None:
    # no theorem reads an s or an r slot, so neither flag exists
    for flag in ("--s", "--r"):
        code, _ = run(capsys, "verify", "--theorem", "t1", "--group", "6", "--q", "4",
                      "--p", "3", "--u", "1", "--v", "1", "--w", "1", "--trials", "2",
                      flag, "7")
        assert code == 2


def test_missing_input_file_is_usage_error(workdir) -> None:
    assert main(["norm", "--group", "6", "--input", str(workdir / "nope.json"),
                 "--p", "2", "--q", "1"]) == 2


def test_baseline_compare_against_written_file(capsys, workdir) -> None:
    path = workdir / "base.json"
    code, _ = run(capsys, "baseline", "--write", "--path", str(path))
    assert code == 0
    code, out = run(capsys, "baseline", "--path", str(path))
    assert code == 0
    entries = [line for line in out.splitlines() if ": computed " in line]
    assert entries and all(line.endswith(" ok") for line in entries)
    # a freshly written file is recomputed bit for bit
    assert all("relative drift 0.000e+00" in line for line in entries)
    assert out.splitlines()[-1] == "max relative drift: 0.000e+00 (tolerance 1.0e-09)"


def test_baseline_detects_drift(capsys, workdir) -> None:
    path = workdir / "base.json"
    code, _ = run(capsys, "baseline", "--write", "--path", str(path))
    assert code == 0
    data = load_json(str(path))
    key = sorted(data["entries"])[0]
    data["entries"][key] += 0.5
    write_json(str(path), data)
    code, out = run(capsys, "baseline", "--path", str(path))
    assert code == 1
    line = next(line for line in out.splitlines() if line.startswith(f"{key}:"))
    assert line.endswith(" DRIFT")
    drift = float(line.split("relative drift ")[1].split()[0])
    old, new = data["entries"][key], data["entries"][key] - 0.5
    assert drift == pytest.approx(0.5 / max(abs(old), abs(new)), rel=1e-3)
    worst = float(out.split("max relative drift: ")[1].split()[0])
    assert worst == pytest.approx(drift, rel=1e-3)
    # the wider allowance accepts the same drift, and the exit code follows
    code, out = run(capsys, "baseline", "--path", str(path), "--tolerance", "10")
    assert code == 0 and "DRIFT" not in out
