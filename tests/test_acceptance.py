"""The eleven acceptance criteria, one test (and one summary line) each.

Two criteria fail by design of the implemented family and are kept as
honest failures rather than weakened:

* Criterion 4 requires reproduction of ``{1, x, x^2, x^3, e^{+-lam x}}``.
  A mask family whose backward tap is the level-independent constant
  required by criterion 2 cannot reproduce ``x``, ``x^2`` or ``x^3``:
  reproducing all six functions forces a frequency-dependent backward
  tap (the two requirements are mutually exclusive).  The family built
  here satisfies criterion 2 and reproduces ``{1, e^{+-lam x}}``, which
  is exactly the property the filter bank's vanishing moments rest on.
* Criterion 10 requires cascade-vs-closed-form agreement below 1e-8.
  The closed-form pieces satisfy the Hermite end conditions exactly but
  are not exactly two-scale refinable (substituting the halved frequency
  leaves a ~1e-5 two-scale defect at lam=2, ~4e-3 at lam=4), so the true
  cascade limit deviates from them by that amount.  The cascade itself
  satisfies the two-scale relation to 1e-13 (see
  test_subdivision.test_refinement_equation), confirming the gap lies in
  the closed forms, not the renderer.
"""

import time

import numpy as np

from conftest import record_acceptance
from golden_data import (
    A_TAPS,
    B_TILDE_SHARP_TAPS,
    R_TAPS,
    S_TAPS,
    T_TAPS,
    max_tap_dev,
    sampled_biorthogonality,
)
from hermwave.annihilator import (
    SpaceSpec,
    check_eigvec_condition,
    check_two_level_identity,
    make_annihilator,
    make_taylor,
    taylor_distance,
)
from hermwave.filterbank import (
    analyze,
    build_at,
    check_biorthogonality,
    check_vanishing_moments,
    compress,
    factorization_pair,
    synthesize,
)
from hermwave.signal import HermiteSignal, exponential, monomial, sample_function
from hermwave.subdivision import (
    A_MINUS_1,
    check_spectral_condition,
    compare_cascade_closed_form,
    make_mask,
)

LAM_GRID = (0.5, 1.0, 2.0, 4.0)


def _finish(num, desc, passed, detail):
    record_acceptance(num, desc, passed, detail)
    assert passed, f"acceptance criterion {num} ({desc}): {detail}"


def test_criterion_01_golden_stationary_matrices():
    t0 = time.perf_counter()
    spec = SpaceSpec(0, 0.0)
    mask = make_mask(spec, 0)
    bank = build_at(spec, 0)
    pair = factorization_pair(
        bank, make_annihilator(spec, 0), make_annihilator(spec, 1)
    )
    devs = {
        "A": max_tap_dev(mask.symbol, A_TAPS),
        "T": max_tap_dev(make_taylor(2), T_TAPS),
        "R": max_tap_dev(pair.R, R_TAPS),
        "B~#": max_tap_dev(bank.B_tilde.involution(), B_TILDE_SHARP_TAPS),
        "S": max_tap_dev(pair.S, S_TAPS),
    }
    elapsed = time.perf_counter() - t0
    worst = max(devs.values())
    _finish(
        1,
        "stationary quintic A, T, R, B~, S match reference matrices (1e-12)",
        worst < 1e-12 and elapsed < 1.0,
        f"max entry deviation {worst:.2e}, runtime {elapsed:.2f}s",
    )


def test_criterion_02_golden_mask_taps():
    worst = 0.0
    for lam in LAM_GRID:
        for level in range(5):
            m = make_mask(SpaceSpec(0, lam), level)
            worst = max(
                worst,
                float(np.max(np.abs(m.tap(-1) - A_MINUS_1))),
                float(np.max(np.abs(m.tap(0) - np.diag([1.0, 0.5, 0.25])))),
            )
    _finish(
        2,
        "derived masks reproduce the constant backward tap and D (1e-12)",
        worst < 1e-12,
        f"max deviation {worst:.2e} over lam in {LAM_GRID}, levels 0-4",
    )


def test_criterion_03_biorthogonality():
    worst = exact = 0.0
    for lam in LAM_GRID:
        for level in range(5):
            fb = build_at(SpaceSpec(0, lam), level)
            worst = max(worst, sampled_biorthogonality(fb, points=64))
            exact = max(exact, check_biorthogonality(fb))
    _finish(
        3,
        "all four biorthogonality identities at 64 unit-circle samples (1e-12)",
        worst < 1e-12 and exact < 1e-12,
        f"max residual {worst:.2e} (exact coefficient residual {exact:.2e})",
    )


def test_criterion_04_spectral_condition():
    report = check_spectral_condition(SpaceSpec(0, 2.0), 0, depth=4)
    detail = ", ".join(f"{k}={v:.2e}" for k, v in report.items())
    _finish(
        4,
        "subdivision reproduces {1, x, x^2, x^3, exp(+-lam x)} over 4 steps (1e-9)",
        max(report.values()) < 1e-9,
        detail,
    )


def test_criterion_05_vanishing_moments():
    worst = 0.0
    for lam in LAM_GRID:
        for level in range(5):
            fb = build_at(SpaceSpec(0, lam), level)
            for f in (monomial(0), exponential(lam), exponential(-lam)):
                worst = max(worst, check_vanishing_moments(fb, f))
    _finish(
        5,
        "details of exact space samples vanish at every transform level (1e-10)",
        worst < 1e-10,
        f"max detail magnitude {worst:.2e}",
    )


def test_criterion_06_perfect_reconstruction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260825)
    worst = 0.0
    for trial in range(100):
        levels = int(rng.integers(1, 6))
        length = int(rng.integers(2, 17)) * 32  # 64..512, divisible by 2^5
        lam = float(rng.choice([1.0, 2.0, 4.0]))
        spec = SpaceSpec(0, lam)
        sig = HermiteSignal(levels + 2, rng.uniform(-1, 1, (length, 3)))
        coarse, details = analyze(spec, sig, levels)
        rec = synthesize(spec, coarse, details)
        worst = max(worst, float(np.max(np.abs(rec.data - sig.data))))
    elapsed = time.perf_counter() - t0
    _finish(
        6,
        "100 random-signal roundtrips, L=1..5 (1e-10, <10s)",
        worst < 1e-10 and elapsed < 10.0,
        f"max roundtrip error {worst:.2e}, runtime {elapsed:.2f}s",
    )


def test_criterion_07_factorizations():
    worst = 0.0
    for lam in (1.0, 2.0, 4.0):
        spec = SpaceSpec(0, lam)
        for level in range(5):
            pair = factorization_pair(
                build_at(spec, level),
                make_annihilator(spec, level),
                make_annihilator(spec, level + 1),
            )
            worst = max(worst, pair.residual_R, pair.residual_S)
    spec0 = SpaceSpec(0, 0.0)
    pair0 = factorization_pair(
        build_at(spec0, 0), make_annihilator(spec0, 0), make_annihilator(spec0, 1)
    )
    golden = max(max_tap_dev(pair0.R, R_TAPS), max_tap_dev(pair0.S, S_TAPS))
    _finish(
        7,
        "factorization residuals (1e-10); stationary quotients match reference (1e-8)",
        worst < 1e-10 and golden < 1e-8,
        f"max residual {worst:.2e}, stationary quotient deviation {golden:.2e}",
    )


def test_criterion_08_two_level_identity():
    worst = 0.0
    for p in (0, 1):
        for lam in (1.0, 2.0, 4.0):
            for level in range(5):
                worst = max(worst, check_two_level_identity(SpaceSpec(p, lam), level))
    _finish(
        8,
        "two-level cancellation-operator identity, p in {0,1} (1e-12)",
        worst < 1e-12,
        f"max residual {worst:.2e}",
    )


def test_criterion_09_annihilator_conditions():
    worst_eig = 0.0
    for lam in LAM_GRID:
        for level in range(5):
            worst_eig = max(
                worst_eig, check_eigvec_condition(make_annihilator(SpaceSpec(0, lam), level))
            )
    worst_taylor = max(taylor_distance(SpaceSpec(0, lam), 20) for lam in (1.0, 2.0, 4.0))
    _finish(
        9,
        "defining constraint at z=exp(-+mu) (1e-12); Taylor limit at n=20 (1e-6)",
        worst_eig < 1e-12 and worst_taylor < 1e-6,
        f"eigvec residual {worst_eig:.2e}, Taylor distance {worst_taylor:.2e}",
    )


def test_criterion_10_cascade_vs_closed_form():
    devs = {}
    for lam in (2.0, 4.0):
        devs[lam] = max(compare_cascade_closed_form(SpaceSpec(0, lam), depth=7).values())
    detail = ", ".join(f"lam={lam}: {v:.2e}" for lam, v in devs.items())
    _finish(
        10,
        "cascade matches closed-form scaling functions at depth 7 (1e-8)",
        max(devs.values()) < 1e-8,
        detail,
    )


def test_criterion_11_compression():
    spec = SpaceSpec(0, 2.0)

    def f(x, j):
        return 2.0**j * (np.exp(2.0 * x) + (-1) ** j * np.exp(-2.0 * x))

    sig = sample_function(f, 9, 0, 512)
    rep = compress(spec, sig, 2, 1e-8)
    frac = 1.0 - rep.kept_details / rep.total_details
    _finish(
        11,
        "pure exponential input: >=99% details below 1e-8, reconstruction <1e-8",
        frac >= 0.99 and rep.max_relative_error < 1e-8,
        f"{100 * frac:.2f}% details dropped, relative error {rep.max_relative_error:.2e}",
    )
