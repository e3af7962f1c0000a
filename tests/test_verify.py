"""Tests for the randomized theorem-verification harness."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    calderon_exact_oracle,
    majorization_grid_oracle,
    random_values_oracle,
    restricted_weak_type_lhs_oracle,
)
from tflab import (
    BASELINE_GRID,
    ETA_SEPARABLE,
    ETA_SQRT_MIN,
    FiniteAbelianGroup,
    GroupEndomorphism,
    GroupFunction,
    IndexTuple,
    TheoremInstance,
    calderon_apply,
    check_admissibility,
    compute_baselines,
    conjugate_rihaczek,
    extremizer_search,
    hypothesis_gaps,
    majorization_check,
    rearrangement,
    restricted_weak_type_check,
    rihaczek,
    sample_functions,
    stft,
    uncertainty_check,
    verify_theorem,
    wigner_tau,
)
from tflab.lorentz import _lorentz_norm
from tflab.serialize import canonical_json, drop_keys, fingerprint
import tflab.calderon as calderon_mod
import tflab.verify as verify_mod


def make(theorem: str, group=(6,), tau=None, trials=4, **indices) -> TheoremInstance:
    return TheoremInstance(
        theorem=theorem,
        group=tuple(group),
        indices=IndexTuple.of(**indices),
        tau=tau,
        trials=trials,
        seed=42,
    )


T1 = dict(q=4, p=3, u=1, v=1, w=1)
T1P = dict(q=4, p1="8/3", p2="8/3", u=2, v=2, w=1)


# -- instances and admissibility --------------------------------------------------


def test_instance_json_roundtrip() -> None:
    inst = make("t3ii", group=(9,), tau=((2,),), **T1)
    again = TheoremInstance.from_json(inst.to_json())
    assert again == inst


def test_instance_rejects_unknown_theorem() -> None:
    with pytest.raises(ValueError):
        make("t9")


def test_instance_rejects_bad_trials() -> None:
    with pytest.raises(ValueError):
        make("t1", trials=-1, **T1)


def test_admissible_instances() -> None:
    good = [
        make("t1prime", **T1P),
        make("t1", **T1),
        make("t2", q=3),
        make("t3i", group=(5, 5), tau=((2, 0), (0, 3)), **T1P),
        make("t3ii", group=(9,), tau=((2,),), **T1),
        make("t3iii", p=3, u=1, v=1, w=1),
        make("t3iv", p=3, u=1, v=1, w=1),
        make("t4dual", tau=((1,),), q=4, p=3, u=2, v=1, w=2),
        make("t5i", q=4, p1="8/3", p2="8/3", u=2, v=2),
        make("t5ii", q=4, p=3, u=1, v=1),
    ]
    for inst in good:
        ok, why = check_admissibility(inst)
        assert ok, f"{inst.theorem}: {why}"


def test_inadmissible_q_at_most_two() -> None:
    for theorem in ("t1prime", "t1", "t2"):
        inst = make(theorem, q=2, p1="4", p2="4", p=2, u=1, v=1, w=1)
        ok, why = check_admissibility(inst)
        assert not ok and "q" in why


def test_inadmissible_index_relations() -> None:
    # 1/p1 + 1/p2 must equal 1 - 1/q.
    ok, why = check_admissibility(make("t1prime", q=4, p1=2, p2=2, u=2, v=2, w=1))
    assert not ok
    # p = 2 is excluded.
    ok, _ = check_admissibility(make("t1", q=4, p=2, u=1, v=1, w=1))
    assert not ok
    # p outside the conjugate window [q', q].
    ok, _ = check_admissibility(make("t1", q=4, p=5, u=1, v=1, w=1))
    assert not ok
    # t1 needs w finite and 1/u + 1/v >= 1 + 1/w.
    ok, _ = check_admissibility(make("t1", q=4, p=3, u=1, v=1, w=math.inf))
    assert not ok
    ok, _ = check_admissibility(make("t1", q=4, p=3, u=2, v=3, w=1))
    assert not ok
    # t5 splits on 1/u + 1/v <= 1 vs > 1.
    ok, _ = check_admissibility(make("t5i", q=4, p1="8/3", p2="8/3", u=1, v=2))
    assert not ok
    ok, _ = check_admissibility(make("t5ii", q=4, p=3, u=2, v=2))
    assert not ok


def test_tau_requirements() -> None:
    ok, why = check_admissibility(make("t3ii", group=(9,), **T1))
    assert not ok and "tau" in why.lower()
    # tau = 2 is not invertible on Z_6.
    ok, _ = check_admissibility(make("t3ii", group=(6,), tau=((2,),), **T1))
    assert not ok


def test_hypothesis_gap_listing() -> None:
    assert hypothesis_gaps(make("t1", **T1)) == []
    gaps_t3 = hypothesis_gaps(make("t3ii", group=(9,), tau=((2,),), **T1))
    assert len(gaps_t3) == 1 and "modulus" in gaps_t3[0]
    gaps_dual = hypothesis_gaps(
        make("t4dual", tau=((1,),), q=4, p=3, u=2, v=1, w=2)
    )
    assert len(gaps_dual) == 2


# -- sample generation --------------------------------------------------------------


def test_sample_functions_deterministic() -> None:
    g = FiniteAbelianGroup([8])
    for kind in ("gaussian-random", "indicator", "spike-plus-flat", "tf-atom"):
        f1, g1 = sample_functions(kind, g, 17)
        f2, g2 = sample_functions(kind, g, 17)
        assert np.array_equal(f1.values, f2.values)
        assert np.array_equal(g1.values, g2.values)


def test_indicator_samples_are_binary() -> None:
    g = FiniteAbelianGroup([12])
    f, win = sample_functions("indicator", g, 3)
    for fn in (f, win):
        assert set(np.round(np.abs(fn.values), 12)) <= {0.0, 1.0}
        assert np.abs(fn.values).max() == 1.0


def test_tf_atom_is_shifted_indicator() -> None:
    g = FiniteAbelianGroup([10])
    f, _ = sample_functions("tf-atom", g, 5)
    mags = sorted(np.round(np.abs(f.values), 12))
    assert set(mags) <= {0.0, 1.0}


def test_unknown_sample_kind_rejected() -> None:
    with pytest.raises(ValueError):
        sample_functions("white-noise", FiniteAbelianGroup([4]), 0)


# -- the verification loop -----------------------------------------------------------


def test_verify_theorem_report_shape() -> None:
    report = verify_theorem(make("t1", trials=8, **T1))
    data = report.to_json()
    assert len(data["trials"]) == 8
    assert data["violations"] == []
    assert data["skipped"] == 0
    assert data["max_ratio"] >= data["mean_ratio"] > 0
    assert math.isfinite(data["max_ratio"])
    kinds = [row["kind"] for row in data["trials"]]
    assert kinds[:4] == list(verify_mod.SAMPLE_KINDS)


def test_verify_theorem_deterministic() -> None:
    inst = make("t2", trials=6, q=3)
    a = verify_theorem(inst).to_json()
    b = verify_theorem(inst).to_json()
    assert canonical_json(drop_keys(a)) == canonical_json(drop_keys(b))


def test_report_object_fingerprint_is_stable() -> None:
    inst = make("t2", trials=6, q=3)
    a, b = verify_theorem(inst), verify_theorem(inst)
    # runtime_ms differs between the runs and must not reach the digest
    assert fingerprint(a) == fingerprint(b) == fingerprint(a.to_json())


def test_report_stage_timings() -> None:
    report = verify_theorem(make("t1", trials=4, **T1))
    timings = report.to_json()["timings_ms"]
    assert set(timings) == {"sample", "fingerprint", "trial"}
    assert all(t > 0 for t in timings.values())
    # the stages are disjoint intervals inside the whole run
    assert sum(timings.values()) <= report.runtime_ms


def test_verify_theorem_rejects_inadmissible() -> None:
    with pytest.raises(ValueError):
        verify_theorem(make("t1", q=4, p=2, u=1, v=1, w=1))


def test_zero_sample_is_skipped_not_failed(monkeypatch) -> None:
    real = verify_mod.sample_functions

    def with_zero_first(kind, group, seed):
        f, g = real(kind, group, seed)
        if kind == "gaussian-random":
            return GroupFunction(group, np.zeros(group.size)), g
        return f, g

    monkeypatch.setattr(verify_mod, "sample_functions", with_zero_first)
    report = verify_theorem(make("t1", trials=4, **T1))
    data = report.to_json()
    assert data["skipped"] == 1
    assert len(data["trials"]) == 3
    assert data["violations"] == []


def test_verify_t4dual_runs_duality_trials() -> None:
    report = verify_theorem(
        make("t4dual", tau=((1,),), trials=4, q=4, p=3, u=2, v=1, w=2)
    )
    data = report.to_json()
    assert data["violations"] == []
    assert data["max_ratio"] > 0
    assert len(data["hypothesis_gaps"]) == 2


def test_verify_t5_uncertainty_trials_hold() -> None:
    report = verify_theorem(make("t5ii", group=(8,), trials=6, q=4, p=3, u=1, v=1))
    data = report.to_json()
    assert data["violations"] == []
    assert all(row["ratio"] <= 1 + 1e-9 for row in data["trials"])


# Indices with u != v and p1 != p2, so that a swapped exponent slot changes the
# ratio; each ratio is written out with its norms' exponents as numbers.
PIN_SPLIT = dict(q=4, p1=2, p2=4, u=1, v=2, w=1)
PIN_WINDOW = dict(q=4, p=3, u=1, v=2, w=2)
PIN_P = dict(p=3, u=1, v=2, w=2)
P_CONJ = Fraction(3, 2)
PINNED = [
    ("t1prime", (6,), None, PIN_SPLIT,
     lambda f, g, tau: stft(f, g).lorentz_norm(4, 1)
     / (f.lorentz_norm(2, 1) * g.lorentz_norm(4, 2))),
    ("t3i", (5, 5), ((2, 0), (0, 3)), PIN_SPLIT,
     lambda f, g, tau: wigner_tau(f, g, tau).lorentz_norm(4, 1)
     / (f.lorentz_norm(2, 1) * g.lorentz_norm(4, 2))),
    ("t1", (6,), None, PIN_WINDOW,
     lambda f, g, tau: stft(f, g).lorentz_norm(4, 2)
     / (f.lorentz_norm(P_CONJ, 1) * g.lorentz_norm(3, 2))),
    ("t3ii", (9,), ((2,),), PIN_WINDOW,
     lambda f, g, tau: wigner_tau(f, g, tau).lorentz_norm(4, 2)
     / (f.lorentz_norm(P_CONJ, 1) * g.lorentz_norm(3, 2))),
    ("t2", (6,), None, dict(q=3),
     lambda f, g, tau: stft(f, g).lorentz_norm(3, 1)
     / (f.lorentz_norm(2, 1) * g.lorentz_norm(2, 1))),
    ("t3iii", (6,), None, PIN_P,
     lambda f, g, tau: rihaczek(f, g).lorentz_norm(3, 2)
     / (f.lorentz_norm(3, 1) * g.lorentz_norm(P_CONJ, 2))),
    ("t3iv", (6,), None, PIN_P,
     lambda f, g, tau: conjugate_rihaczek(f, g).lorentz_norm(3, 2)
     / (f.lorentz_norm(P_CONJ, 1) * g.lorentz_norm(3, 2))),
]


@pytest.mark.parametrize(
    "theorem, group, tau, indices, ratio", PINNED, ids=[row[0] for row in PINNED]
)
def test_ratio_exponents_pinned(theorem, group, tau, indices, ratio) -> None:
    report = verify_theorem(make(theorem, group=group, tau=tau, trials=8, **indices))
    assert report.skipped == 0
    grp = FiniteAbelianGroup(group)
    endo = None if tau is None else GroupEndomorphism(grp, tau)
    for i, row in enumerate(report.trials):
        f, g = sample_functions(row["kind"], grp, 42 ^ i)
        assert row["ratio"] == ratio(f, g, endo), (theorem, i)


def test_transforms_are_looked_up_at_call_time(monkeypatch) -> None:
    # the catalogue must reach stft and wigner_tau through the module's names,
    # which the benchmark's tracer replaces with wrappers
    calls = []
    for name in ("stft", "wigner_tau"):

        def counting(*args, _real=getattr(verify_mod, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(verify_mod, name, counting)
    t1 = verify_theorem(make("t1", trials=6, **T1))
    t3ii = verify_theorem(make("t3ii", group=(9,), tau=((2,),), trials=5, **T1))
    assert t1.skipped == t3ii.skipped == 0
    assert calls == ["stft"] * 6 + ["wigner_tau"] * 5


def test_tau_is_built_and_certified_once_per_run(monkeypatch) -> None:
    built = []

    class Counting(GroupEndomorphism):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(verify_mod, "GroupEndomorphism", Counting)
    inst = make("t3ii", group=(9,), tau=((2,),), trials=3, **T1)
    verify_theorem(inst)
    assert len(built) == 1
    extremizer_search(inst, budget=2)
    assert len(built) == 2


# -- restricted weak type -------------------------------------------------------------


def test_restricted_weak_type_singletons() -> None:
    g = FiniteAbelianGroup([6])
    lhs, rhs, ok = restricted_weak_type_check(g, [0], [0], 1, math.inf, math.inf)
    assert ok and lhs <= rhs * (1 + 1e-9)


@pytest.mark.parametrize("r", [2, math.inf])
def test_restricted_weak_type_lhs_matches_oracle(r) -> None:
    g = FiniteAbelianGroup([6])
    subsets = [[0], [1, 3], [0, 1, 2], [0, 2, 4], [5, 1, 2, 4], list(range(6))]
    for u_set in subsets:
        for v_set in subsets:
            lhs, _, _ = restricted_weak_type_check(g, u_set, v_set, 2, 2, r)
            want = restricted_weak_type_lhs_oracle(g, u_set, v_set, r)
            assert lhs == pytest.approx(want, rel=1e-12, abs=0)


def test_restricted_weak_type_constant_one_families() -> None:
    g = FiniteAbelianGroup([6])
    subsets = [[0], [1, 3], [0, 1, 2], list(range(6))]
    for u_set in subsets:
        for v_set in subsets:
            for p, q in ((1, math.inf), (math.inf, 1), (2, 2)):
                lhs, rhs, ok = restricted_weak_type_check(
                    g, u_set, v_set, p, q, math.inf if 2 not in (p, q) else 2
                )
                assert ok, (u_set, v_set, p, q)


def test_restricted_weak_type_rejects_empty() -> None:
    g = FiniteAbelianGroup([6])
    with pytest.raises(ValueError):
        restricted_weak_type_check(g, [], [0], 1, math.inf, math.inf)


# -- majorization and uncertainty -------------------------------------------------------


def test_majorization_bounded_by_one() -> None:
    g = FiniteAbelianGroup([12])
    for seed in range(6):
        f, win = sample_functions("gaussian-random", g, seed)
        assert majorization_check(f, win) <= 1 + 1e-9


def test_majorization_zero_function() -> None:
    g = FiniteAbelianGroup([6])
    z = GroupFunction(g, np.zeros(6))
    f, _ = sample_functions("gaussian-random", g, 1)
    assert majorization_check(z, f) == 0.0


def majorization_parts(f, g, eta):
    """(V_g f)*, and S_eta(f*, g*) at its breaks, one scalar call per break."""
    hstar = rearrangement(stft(f, g).to_measured())
    fstar = rearrangement(f.to_measured())
    gstar = rearrangement(g.to_measured())
    s_vals = [calderon_apply(eta, fstar, gstar, b) for b in hstar.breaks.tolist()]
    return hstar, fstar, gstar, s_vals


def majorization_scalar_loop(f, g, eta=ETA_SQRT_MIN) -> float:
    """majorization_check with one scalar calderon_apply call per break."""
    hstar, _, _, s_vals = majorization_parts(f, g, eta)
    worst = 0.0
    for top, s_val in zip(hstar.values.tolist(), s_vals):
        worst = max(worst, top / s_val if s_val > 0 else math.inf)
    return worst


#: Z_12 and Z_4 x Z_6 at Haar weight 0.5, each sample kind, both kernels.
MAJORIZATION_CASES = [
    (orders, kind, seed, eta)
    for orders in ([12], [4, 6])
    for seed, kind in enumerate(verify_mod.SAMPLE_KINDS)
    for eta in (ETA_SQRT_MIN, ETA_SEPARABLE)
]


def majorization_case(orders, kind, seed):
    return sample_functions(kind, FiniteAbelianGroup(orders, haar_weight=0.5), seed)


def test_majorization_matches_scalar_loop() -> None:
    for orders, kind, seed, eta in MAJORIZATION_CASES:
        f, win = majorization_case(orders, kind, seed)
        assert majorization_check(f, win, eta) == majorization_scalar_loop(f, win, eta)


def test_majorization_never_below_the_grid() -> None:
    # every grid ratio is attained, so the supremum is at least the grid's
    # maximum; the slack is for t <= 1, where both kernels make S constant
    # in exact arithmetic but its computed values may differ in the last bits
    rises = []
    for orders, kind, _, eta in MAJORIZATION_CASES:
        for seed in range(4):
            f, win = majorization_case(orders, kind, seed)
            exact = majorization_check(f, win, eta)
            grid = majorization_grid_oracle(f, win, eta)
            assert exact >= grid * (1 - 1e-12)
            rises.append(exact / grid - 1)
    assert max(rises) > 0.01


def test_majorization_pieces_match_exact_oracle() -> None:
    # each top_i / S(b_i) against S summed rectangle by rectangle, on Z_12
    # (worst relative gap measured: 1.8e-15)
    for orders, kind, seed, eta in MAJORIZATION_CASES:
        if orders != [12]:
            continue
        f, win = majorization_case(orders, kind, seed)
        hstar, fstar, gstar, s_vals = majorization_parts(f, win, eta)
        for top, b, s_val in zip(hstar.values.tolist(), hstar.breaks.tolist(), s_vals):
            oracle = calderon_exact_oracle(eta, fstar, gstar, b)
            assert top / s_val == pytest.approx(top / oracle, rel=1e-12)


def test_calderon_continuous_and_non_increasing_at_the_breaks() -> None:
    # the exact supremum reads S(b) for its left limit at each break b of
    # (V_g f)* (worst relative gap measured: 5.0e-14)
    for orders, kind, seed, eta in MAJORIZATION_CASES:
        f, win = majorization_case(orders, kind, seed)
        hstar, fstar, gstar, s_vals = majorization_parts(f, win, eta)
        s_left = calderon_apply(eta, fstar, gstar, hstar.breaks * (1 - 1e-13))
        assert s_left == pytest.approx(s_vals, rel=1e-12)
        assert all(b <= a * (1 + 1e-12) for a, b in zip(s_vals, s_vals[1:]))


def test_majorization_evaluates_one_t_per_piece(monkeypatch) -> None:
    ts = []
    corners = calderon_mod._calderon_corners
    monkeypatch.setattr(
        calderon_mod, "_calderon_corners",
        lambda eta, fstar, gstar, t: ts.extend(t) or corners(eta, fstar, gstar, t),
    )
    for orders, kind, seed, eta in MAJORIZATION_CASES:
        f, win = majorization_case(orders, kind, seed)
        ts.clear()
        majorization_check(f, win, eta)
        assert len(ts) == len(rearrangement(stft(f, win).to_measured()))


def test_uncertainty_chain_holds_and_orders() -> None:
    g = FiniteAbelianGroup([9])
    f, win = sample_functions("gaussian-random", g, 11)
    omega = [(x, xi) for x in range(9) for xi in range(4)]
    eps, lhs, rhs, bound, holds = uncertainty_check(f, win, omega, q=3)
    assert holds
    assert math.sqrt(eps) <= lhs * (1 + 1e-9)
    assert lhs <= rhs * (1 + 1e-9)
    assert 0 < bound <= len(omega) * g.haar_weight * g.dual_weight * (1 + 1e-9)


def test_uncertainty_pairs_match_mask() -> None:
    g = FiniteAbelianGroup([6])
    f, win = sample_functions("gaussian-random", g, 13)
    pairs = [(1, 2), (3, 4), (5, 0)]
    mask = np.zeros((6, 6), dtype=bool)
    mask[tuple(np.transpose(pairs))] = True
    expected = uncertainty_check(f, win, mask, q=4)
    assert uncertainty_check(f, win, pairs, q=4) == expected
    # argwhere rows are pairs too, and a pair reduces mod |G|
    assert uncertainty_check(f, win, np.argwhere(mask), q=4) == expected
    assert uncertainty_check(f, win, [(7, 2), (3, -2), (5, 0)], q=4) == expected
    # a flat index x * |G| + xi is not a pair
    with pytest.raises(ValueError, match=r"\(x, xi\) pairs, got 8"):
        uncertainty_check(f, win, [x * 6 + xi for x, xi in pairs], q=4)


def test_uncertainty_derives_w_and_r_from_u_and_v() -> None:
    # the listed region on Z_6, then a random mask on Z_8 x Z_8; the indicator
    # norm is pinned to the norm of the float mask
    mask6 = np.zeros((6, 6), dtype=bool)
    mask6[0, 0] = mask6[2, 3] = True
    mask64 = np.random.default_rng(18).random((64, 64)) < 0.3
    cases = (
        (FiniteAbelianGroup([6]), 17, [(0, 0), (2, 3)], mask6),
        (FiniteAbelianGroup([8, 8]), 19, mask64, mask64),
    )
    for g, seed, omega, mask in cases:
        f, win = sample_functions("gaussian-random", g, seed)
        cell = g.haar_weight * g.dual_weight
        # q = 4 gives s = 4; (u, v) -> (w, r) with 1/w = clamp(1/u + 1/v - 1, 0, 1/2)
        for u, v, w, r in ((1, 1, 2, math.inf), (2, 2, math.inf, 2), ("4/3", 2, 4, 4)):
            eps, lhs, rhs, _, _ = uncertainty_check(f, win, omega, 4, u, v)
            ind = mask.reshape(-1).astype(np.float64)
            want = 2 * stft(f, win).lorentz_norm(4, w) * _lorentz_norm(ind, cell, 4, r)
            assert rhs == want, (g, u, v)
            assert lhs == math.sqrt(eps)


@pytest.mark.parametrize("n", [1, 6, 65536])
def test_random_values_match_one_array_expression(n) -> None:
    # the in-place fill draws in the same order and leaves the generator at
    # the same state as (x + 1j * y) / sqrt(2)
    rng, ref = np.random.default_rng(n), np.random.default_rng(n)
    got, want = verify_mod._random_values(rng, n), random_values_oracle(ref, n)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.standard_normal() == ref.standard_normal()


@pytest.mark.parametrize("u, v, message", [
    (0, 1, "u must be >= 1, got 0"),
    (1, "1/2", "v must be >= 1, got 1/2"),
    (-1, 2, "u must be >= 1, got -1"),
])
def test_uncertainty_rejects_window_exponents_below_one(u, v, message) -> None:
    g = FiniteAbelianGroup([6])
    f, win = sample_functions("gaussian-random", g, 15)
    with pytest.raises(ValueError, match=re.escape(message)):
        uncertainty_check(f, win, [(0, 0)], 4, u, v)


def test_uncertainty_rejects_degenerate_requests() -> None:
    g = FiniteAbelianGroup([6])
    f, win = sample_functions("gaussian-random", g, 15)
    omega = [(0, 0)]
    with pytest.raises(ValueError):
        uncertainty_check(f, win, omega, q=2)
    with pytest.raises(ValueError):
        uncertainty_check(f, win, [], q=4)
    with pytest.raises(ValueError):
        uncertainty_check(f, win, np.ones((6, 5), dtype=bool), q=4)


# -- extremizers and operator norms ------------------------------------------------------


def test_extremizer_budget_zero_matches_suite_max() -> None:
    inst = make("t1", trials=6, **T1)
    best, f, g = extremizer_search(inst, budget=0)
    report = verify_theorem(inst)
    assert best == pytest.approx(report.max_ratio, rel=1e-12)
    assert f.values.shape == (6,) and g.values.shape == (6,)


def test_extremizer_improves_with_budget() -> None:
    inst = make("t1", trials=4, **T1)
    base, _, _ = extremizer_search(inst, budget=0)
    better, _, _ = extremizer_search(inst, budget=60)
    assert better >= base - 1e-12


EXTREMIZE_CASES = [
    make("t1", group=(16,), trials=8, **T1),
    make("t3ii", group=(9,), tau=((2,),), trials=8, **T1),
]


@pytest.mark.parametrize("inst", EXTREMIZE_CASES, ids=["t1-z16", "t3ii-z9"])
def test_extremizer_result_never_falls_with_budget(inst) -> None:
    # a run is a prefix of every longer one
    results = [extremizer_search(inst, budget)[0] for budget in (0, 10, 100, 1000)]
    assert results == sorted(results)
    assert results[-1] > results[0]


@pytest.mark.parametrize("inst", EXTREMIZE_CASES, ids=["t1-z16", "t3ii-z9"])
def test_extremizer_spends_the_whole_budget(inst, monkeypatch) -> None:
    calls = []

    def counted(transform):
        def call(*args, **kwargs):
            calls.append(transform.__name__)
            return transform(*args, **kwargs)

        return call

    for name in ("stft", "wigner_tau"):
        monkeypatch.setattr(verify_mod, name, counted(getattr(verify_mod, name)))
    for budget in (0, 10, 37, 100):
        calls.clear()
        extremizer_search(inst, budget)
        assert len(calls) == inst.trials + budget


def test_extremizer_rejects_negative_budget_and_t5() -> None:
    with pytest.raises(ValueError):
        extremizer_search(make("t1", **T1), budget=-1)
    with pytest.raises(ValueError):
        extremizer_search(make("t5i", q=4, p1="8/3", p2="8/3", u=2, v=2), budget=0)


# -- baselines ----------------------------------------------------------------------------


def test_baseline_grid_ids_unique() -> None:
    ids = [entry["id"] for entry in BASELINE_GRID]
    assert len(ids) == len(set(ids))


def test_compute_baselines_tiny_grid_deterministic() -> None:
    grid = [
        {
            "id": "tiny-t2",
            "kind": "theorem",
            "instance": {
                "theorem": "t2",
                "group": [6],
                "indices": {"q": "3"},
                "tau": None,
                "trials": 4,
                "seed": 42,
            },
        },
        {"id": "tiny-major", "kind": "majorization", "group": [6], "samples": 2, "seed": 1},
    ]
    a = compute_baselines(grid)
    b = compute_baselines(grid)
    assert a == b
    assert set(a) == {"tiny-t2", "tiny-major"}
    assert all(math.isfinite(v) and v > 0 for v in a.values())
