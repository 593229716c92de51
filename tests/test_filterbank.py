"""Filter-bank construction, biorthogonality, factorizations, transform."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hermwave.annihilator import SpaceSpec, make_annihilator, make_taylor
from hermwave.filterbank import (
    BIORTHO_TOL,
    FilterBank,
    analyze,
    build,
    build_at,
    check_biorthogonality,
    check_vanishing_moments,
    compress,
    compute_R,
    compute_S,
    factorization_pair,
    synthesize,
    transform_from_json_dict,
    transform_to_json_dict,
)
from hermwave.laurent import DivisionError, MatLaurent, max_coeff_dev
from hermwave.signal import (
    HermiteSignal,
    exponential,
    hyperbolic_cosine,
    monomial,
    sample_function,
)
from hermwave.subdivision import _BLOCK, LevelMask, make_mask

from golden_data import (
    B_TILDE_SHARP_TAPS,
    R_TAPS,
    S_TAPS,
    analyze_roll,
    max_tap_dev,
    sampled_biorthogonality,
    synthesize_roll,
    vanishing_moments_loop,
)


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def test_bank_structure():
    fb = build_at(SpaceSpec(0, 2.0), 0)
    assert np.allclose(fb.A_tilde.tap(0), np.diag([1.0, 2.0, 4.0]))
    assert (fb.A_tilde.lo, fb.A_tilde.hi) == (0, 0)
    assert fb.B == MatLaurent.identity(3, 1)


def test_high_pass_direct_tap_formula():
    fb = build_at(SpaceSpec(0, 2.0), 0)
    dinv = np.diag([1.0, 2.0, 4.0])
    for m in (0, 1, 2):
        expect = ((-1) ** (1 - m)) * dinv @ fb.A.tap(1 - m).T
        assert np.allclose(fb.B_tilde.tap(m), expect, atol=1e-14)


def test_stationary_high_pass_matches_reference():
    fb = build_at(SpaceSpec(0, 0.0), 0)
    assert max_tap_dev(fb.B_tilde.involution(), B_TILDE_SHARP_TAPS) < 1e-13


def test_non_interpolatory_mask_rejected():
    bad = MatLaurent.from_taps(3, {0: np.eye(3)})
    lm = LevelMask(0, SpaceSpec(0, 2.0), bad)
    with pytest.raises(ValueError, match="interpolatory"):
        build(lm)


# ----------------------------------------------------------------------
# biorthogonality
# ----------------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("level", [0, 2, 4])
def test_biorthogonality(lam, level):
    assert check_biorthogonality(build_at(SpaceSpec(0, lam), level)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.floats(-9.0, -2.0))
@example(-3.0)
def test_biorthogonality_detector_sensitivity(log_delta):
    # the exact check and the sampled reference both see a tap error delta
    delta = 10.0**log_delta
    fb = build_at(SpaceSpec(0, 2.0), 0)
    taps = {k: np.array(m) for k, m in fb.A.taps().items()}
    taps[1][0, 0] += delta
    bad = FilterBank(
        fb.level, fb.spec, MatLaurent.from_taps(3, taps), fb.B, fb.A_tilde, fb.B_tilde
    )
    assert check_biorthogonality(bad) >= delta
    assert sampled_biorthogonality(bad) >= delta


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_build_high_frequency(level):
    # max |A_1| = 241 at mu = 8: a check that evaluates the symbols at
    # sample points picks up ~1e-11 roundoff here, the exact one none
    fb = build_at(SpaceSpec(0, 8.0), level)
    assert check_biorthogonality(fb) <= BIORTHO_TOL


# ----------------------------------------------------------------------
# vanishing moments
# ----------------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.5, 2.0, 4.0])
@pytest.mark.parametrize("level", [0, 1, 3])
def test_vanishing_moments_on_space_basis(lam, level):
    fb = build_at(SpaceSpec(0, lam), level)
    assert check_vanishing_moments(fb, monomial(0)) < 1e-12
    assert check_vanishing_moments(fb, exponential(lam)) < 1e-10
    assert check_vanishing_moments(fb, exponential(-lam)) < 1e-10


@pytest.mark.parametrize("lam", [0.0, 2.0, 8.0])
@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_vanishing_moments_match_node_loop(lam, level):
    # one strided product per tap against one product per node and tap
    fb = build_at(SpaceSpec(0, lam), level)
    for f in (monomial(0), exponential(lam), exponential(-lam), monomial(1)):
        assert check_vanishing_moments(fb, f) == pytest.approx(vanishing_moments_loop(fb, f), abs=1e-15)


def test_vanishing_moments_negative_control():
    # x lies outside the reproduced space; details must not vanish
    fb = build_at(SpaceSpec(0, 2.0), 0)
    assert check_vanishing_moments(fb, monomial(1)) > 1e-4


# ----------------------------------------------------------------------
# factorizations
# ----------------------------------------------------------------------

def test_stationary_quotients_match_reference():
    mask = make_mask(SpaceSpec(0, 0.0), 0)
    ann0 = make_annihilator(SpaceSpec(0, 0.0), 0)
    ann1 = make_annihilator(SpaceSpec(0, 0.0), 1)
    pair = factorization_pair(build(mask), ann0, ann1)
    assert max_tap_dev(pair.R, R_TAPS) < 1e-12
    assert max_tap_dev(pair.S, S_TAPS) < 1e-12
    assert pair.residual_R < 1e-10 and pair.residual_S < 1e-10


@pytest.mark.parametrize("lam", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_factorization_residuals(lam, level):
    spec = SpaceSpec(0, lam)
    pair = factorization_pair(
        build_at(spec, level),
        make_annihilator(spec, level),
        make_annihilator(spec, level + 1),
    )
    assert pair.residual_R < 1e-10 and pair.residual_S < 1e-10


def test_factorization_failure_on_perturbed_mask():
    spec = SpaceSpec(0, 2.0)
    good = make_mask(spec, 0)
    taps = {k: np.array(m) for k, m in good.symbol.taps().items()}
    taps[1][0, 0] += 1e-3
    bad = LevelMask(0, spec, MatLaurent.from_taps(3, taps))
    with pytest.raises(DivisionError):
        compute_R(build(bad), make_annihilator(spec, 0), make_annihilator(spec, 1))


def test_wavelet_quotient_closed_form_cross_check():
    spec = SpaceSpec(0, 2.0)
    mask = make_mask(spec, 1)
    ann1, ann2 = make_annihilator(spec, 1), make_annihilator(spec, 2)
    fb = build(mask)
    r = compute_R(fb, ann1, ann2)
    assert compute_S(fb, ann2, cross_check_R=r) == compute_S(fb, ann2)
    taps = {k: np.array(m) for k, m in r.taps().items()}
    taps[0][1, 1] += 1e-6
    with pytest.raises(ValueError, match="closed formula"):
        compute_S(fb, ann2, cross_check_R=MatLaurent.from_taps(3, taps))


def test_scalar_haar_reduction():
    # d = 0 sanity: A(z) = 1 + z is interpolatory for D = (1); the
    # wavelet quotient of its bank against the scalar Taylor operator
    # exists with tiny support
    a = MatLaurent.from_taps(1, {0: np.eye(1), 1: np.eye(1)})
    dinv = MatLaurent.identity(1)
    b_tilde = MatLaurent.identity(1, 1).mul(dinv).mul(a.involution().negate_arg())
    s = b_tilde.involution().divide_right(make_taylor(0))
    assert s.hi - s.lo <= 1
    assert max_coeff_dev(s.mul(make_taylor(0)), b_tilde.involution()) < 1e-13


# ----------------------------------------------------------------------
# transform
# ----------------------------------------------------------------------

@pytest.mark.parametrize("length,levels,lam", [(64, 1, 1.0), (128, 3, 2.0), (512, 5, 4.0)])
def test_perfect_reconstruction(length, levels, lam):
    rng = np.random.default_rng(42)
    spec = SpaceSpec(0, lam)
    sig = HermiteSignal(levels + 2, rng.uniform(-1, 1, (length, 3)))
    coarse, details = analyze(spec, sig, levels)
    assert coarse.level == sig.level - levels
    assert len(coarse) == length // 2**levels
    assert [len(d) for d in details] == [length // 2**s for s in range(1, levels + 1)]
    rec = synthesize(spec, coarse, details)
    assert np.max(np.abs(rec.data - sig.data)) < 1e-10


def test_analyze_constant_signal():
    spec = SpaceSpec(0, 2.0)
    sig = sample_function(monomial(0), 5, 0, 64)
    coarse, details = analyze(spec, sig, 3)
    assert np.allclose(coarse.data, sig.data[: len(coarse)], atol=1e-12)
    for d in details:
        assert np.max(np.abs(d.data)) < 1e-12


def test_detail_impulse_maps_to_odd_fine_index():
    spec = SpaceSpec(0, 2.0)
    coarse = HermiteSignal(3, np.zeros((8, 3)))
    det = np.zeros((8, 3))
    det[2, 0] = 1.0
    rec = synthesize(spec, coarse, [HermiteSignal(3, det)])
    expect = np.zeros((16, 3))
    expect[5, 0] = 1.0
    assert np.array_equal(rec.data, expect)


def test_zero_details_equals_subdivision():
    spec = SpaceSpec(0, 2.0)
    rng = np.random.default_rng(7)
    coarse = HermiteSignal(2, rng.uniform(-1, 1, (16, 3)))
    rec = synthesize(spec, coarse, [HermiteSignal(2, np.zeros((16, 3)))])
    from hermwave.subdivision import subdivide_periodic

    direct = subdivide_periodic(make_mask(spec, 2), coarse)
    assert np.array_equal(rec.data, direct.data)


def test_transform_error_contracts():
    spec = SpaceSpec(0, 2.0)
    with pytest.raises(ValueError, match="underflow"):
        analyze(spec, HermiteSignal(1, np.zeros((64, 3))), 3)
    with pytest.raises(ValueError, match="divisible"):
        analyze(spec, HermiteSignal(5, np.zeros((66, 3))), 3)
    with pytest.raises(ValueError, match="level"):
        synthesize(spec, HermiteSignal(2, np.zeros((8, 3))), [HermiteSignal(5, np.zeros((8, 3)))])
    with pytest.raises(ValueError, match="signal dim 4 does not match the space's dim 3"):
        analyze(spec, HermiteSignal(5, np.zeros((64, 4))), 3)
    with pytest.raises(ValueError, match="signal dim 4 does not match"):
        synthesize(spec, HermiteSignal(2, np.zeros((8, 4))), [HermiteSignal(2, np.zeros((8, 4)))])
    with pytest.raises(ValueError, match="signal dim 2 does not match"):
        synthesize(spec, HermiteSignal(2, np.zeros((8, 3))), [HermiteSignal(2, np.zeros((8, 2)))])
    for bad in (-1e-8, float("nan")):
        with pytest.raises(ValueError, match="threshold must be nonnegative"):
            compress(spec, HermiteSignal(5, np.zeros((64, 3))), 3, bad)


@pytest.mark.parametrize("levels", [-1, -2])
def test_negative_depth_is_rejected(levels):
    spec = SpaceSpec(0, 2.0)
    sig = HermiteSignal(4, np.ones((16, 3)))
    with pytest.raises(ValueError, match=f"transform depth must be >= 0, got {levels}"):
        analyze(spec, sig, levels)
    with pytest.raises(ValueError, match=f"transform depth must be >= 0, got {levels}"):
        compress(spec, sig, levels, 1e-8)


def test_depth_zero_is_the_identity():
    spec = SpaceSpec(0, 2.0)
    sig = sample_function(hyperbolic_cosine(2.0), 4, 0, 16)
    coarse, details = analyze(spec, sig, 0)
    assert details == [] and coarse.level == 4
    assert np.array_equal(coarse.data, sig.data)
    assert np.array_equal(synthesize(spec, coarse, details).data, sig.data)


def test_analyze_rejects_non_finite_signal():
    spec = SpaceSpec(0, 2.0)
    data = sample_function(hyperbolic_cosine(2.0), 4, 0, 16).data.copy()
    data[5, 1] = np.nan
    with pytest.raises(ValueError, match="HermiteSignal at level 4 holds a non-finite value"):
        analyze(spec, HermiteSignal(4, data), 2)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_synthesize_rejects_non_finite_coefficients(value):
    spec = SpaceSpec(0, 2.0)
    coarse, details = analyze(spec, sample_function(hyperbolic_cosine(2.0), 4, 0, 16), 2)
    bad = details[1].data.copy()
    bad[1, 0] = value
    with pytest.raises(ValueError, match="HermiteSignal at level 2 holds a non-finite value"):
        synthesize(spec, coarse, [details[0], HermiteSignal(2, bad)])
    bad = coarse.data.copy()
    bad[0, 2] = value
    with pytest.raises(ValueError, match="HermiteSignal at level 2 holds a non-finite value"):
        synthesize(spec, HermiteSignal(2, bad), details)


@pytest.mark.filterwarnings("error")
def test_analyze_overflow_is_a_named_error():
    # finite input whose coarse entries D^-1 c overflow; numpy's overflow warning stays silent
    data = np.zeros((16, 3))
    data[4, 2] = 1e308
    with pytest.raises(ValueError, match="HermiteSignal at level 3 holds a non-finite value"):
        analyze(SpaceSpec(0, 2.0), HermiteSignal(4, data), 2)


@pytest.mark.filterwarnings("error")
def test_overflow_past_the_first_block_is_a_named_error():
    # the finest step has 2 * _BLOCK coarse rows, so two blocks; the bad row is in the second
    spec, rows = SpaceSpec(0, 2.0), _BLOCK + 100
    data = np.zeros((4 * _BLOCK, 3))
    data[2 * rows, 2] = 1e308  # D^-1 scales component 2 by 4
    with pytest.raises(ValueError, match="HermiteSignal at level 11 holds a non-finite value"):
        analyze(spec, HermiteSignal(12, data), 2)
    # constants are reproduced, so level 11 stays finite; its prediction plus a detail overflows
    coarse = np.zeros((_BLOCK, 3))
    coarse[:, 0] = 1e308
    finest = np.zeros((2 * _BLOCK, 3))
    finest[rows, 0] = 1e308
    details = [HermiteSignal(11, finest), HermiteSignal(10, np.zeros((_BLOCK, 3)))]
    with pytest.raises(ValueError, match="HermiteSignal at level 12 holds a non-finite value"):
        synthesize(spec, HermiteSignal(10, coarse), details)


def test_transform_outputs_are_read_only_and_own_their_memory():
    spec = SpaceSpec(0, 2.0)
    data = np.random.default_rng(5).uniform(-1.0, 1.0, (64, 3))
    for levels in (0, 3):
        coarse, details = analyze(spec, HermiteSignal(8, data), levels)
        rec = synthesize(spec, coarse, details)
        report = compress(spec, HermiteSignal(8, data), levels, 1e-3)
        outputs = [coarse.data, rec.data, report.reconstruction.data] + [d.data for d in details]
        for i, out in enumerate(outputs):
            assert not out.flags.writeable
            assert not np.shares_memory(out, data)
            # with no levels, synthesis hands back its (read-only) coarse input
            assert levels == 0 or not any(np.shares_memory(out, other) for other in outputs[i + 1 :])
    coarse_in = np.array(coarse.data)
    detail_in = [np.array(d.data) for d in details]
    rec = synthesize(spec, HermiteSignal(5, coarse_in), [HermiteSignal(d.level, x) for d, x in zip(details, detail_in)])
    assert not rec.data.flags.writeable
    assert not any(np.shares_memory(rec.data, x) for x in [coarse_in, *detail_in])


@pytest.mark.parametrize("lam", [0.0, 2.0, 8.0])
@pytest.mark.parametrize("nodes", [2**16, 16 * 2053])
def test_transform_is_bit_identical_to_unblocked_reference(lam, nodes):
    # depth 4: the finest coarse level has 2^15 rows (a multiple of _BLOCK)
    # or 8 * 2053 rows (two blocks, the last one longer)
    spec, level, depth = SpaceSpec(0, lam), 16, 4
    rng = np.random.default_rng(nodes)
    for data in (rng.uniform(-1.0, 1.0, (nodes, 3)), rng.uniform(-1.0, 1.0, (nodes, 3)) * [1.0, 1e3, 1e6]):
        data[::97] *= -0.0  # signed zeros: the D^-1 product turns -0.0 into +0.0
        coarse, details = analyze(spec, HermiteSignal(level, data), depth)
        want_coarse, want_details = analyze_roll(spec, level, data, depth)
        assert np.array_equal(coarse.data.view(np.int64), want_coarse.view(np.int64))
        for got, want in zip(details, want_details, strict=True):
            assert np.array_equal(got.data.view(np.int64), want.view(np.int64))
        rec = synthesize(spec, coarse, details)
        want = synthesize_roll(spec, level - depth, want_coarse, want_details)
        assert np.array_equal(rec.data.view(np.int64), want.view(np.int64))


def test_transform_data_starts_at_node_zero():
    spec = SpaceSpec(0, 2.0)
    with pytest.raises(ValueError, match="transform data starts at node 0, got 5 at level 4"):
        analyze(spec, HermiteSignal(4, np.zeros((16, 3)), start=5), 2)
    coarse, details = analyze(spec, HermiteSignal(4, np.zeros((16, 3))), 2)
    assert coarse.start == 0 and all(d.start == 0 for d in details)
    with pytest.raises(ValueError, match="transform data starts at node 0, got -1 at level 2"):
        synthesize(spec, HermiteSignal(2, coarse.data, start=-1), details)
    with pytest.raises(ValueError, match="transform data starts at node 0, got 3 at level 3"):
        synthesize(spec, coarse, [HermiteSignal(3, details[0].data, start=3), details[1]])


def test_transform_checks_the_spec_before_the_dims():
    spec = SpaceSpec(1, 2.0)  # dim 4; the mask family has p = 0 only
    with pytest.raises(ValueError, match=r"\(p=0, one frequency pair\) family; got p=1"):
        analyze(spec, HermiteSignal(4, np.zeros((16, 3))), 2)
    for details in ([HermiteSignal(2, np.zeros((8, 3)))], []):
        with pytest.raises(ValueError, match=r"\(p=0, one frequency pair\) family; got p=1"):
            synthesize(spec, HermiteSignal(2, np.zeros((8, 3))), details)


def test_transform_json_roundtrip():
    spec = SpaceSpec(0, 2.0)
    rng = np.random.default_rng(3)
    sig = HermiteSignal(4, rng.uniform(-1, 1, (32, 3)))
    coarse, details = analyze(spec, sig, 2)
    payload = transform_to_json_dict(spec, sig.level, coarse, details)
    spec2, entry, coarse2, details2 = transform_from_json_dict(payload)
    assert spec2 == spec and entry == 4
    assert np.array_equal(coarse2.data, coarse.data)
    rec = synthesize(spec2, coarse2, details2)
    assert np.max(np.abs(rec.data - sig.data)) < 1e-12


finite_rows = st.integers(1, 6).flatmap(
    lambda m: arrays(np.float64, (m, 3), elements=st.floats(allow_nan=False, allow_infinity=False))
)


@settings(max_examples=60, deadline=None)
@given(finite_rows, st.lists(finite_rows, min_size=1, max_size=3), st.sampled_from([0.0, 0.5, 2.0]))
def test_transform_json_roundtrip_bit_exact(coarse, details, lam):
    # the coefficient file as the CLI writes it: compact JSON of this payload
    spec = SpaceSpec(0, lam)
    entry = len(details) + 1
    dets = [HermiteSignal(entry - i, d) for i, d in enumerate(details, start=1)]
    payload = transform_to_json_dict(spec, entry, HermiteSignal(1, coarse), dets)
    text = json.dumps(payload, separators=(",", ":"))
    spec2, entry2, coarse2, details2 = transform_from_json_dict(json.loads(text))
    assert (spec2, entry2, coarse2.level) == (spec, entry, 1)
    assert coarse2.data.tobytes() == coarse.tobytes()
    assert [d.level for d in details2] == [d.level for d in dets]
    assert [d.data.tobytes() for d in details2] == [d.tobytes() for d in details]


# ----------------------------------------------------------------------
# compression
# ----------------------------------------------------------------------

def test_compress_pure_exponential():
    spec = SpaceSpec(0, 2.0)
    sig = sample_function(hyperbolic_cosine(2.0), 9, 0, 512)
    rep = compress(spec, sig, 2, 1e-8)
    assert rep.kept_details / rep.total_details <= 0.01
    assert rep.max_relative_error < 1e-8


def test_compress_zero_threshold_lossless():
    spec = SpaceSpec(0, 2.0)
    rng = np.random.default_rng(11)
    sig = HermiteSignal(4, rng.uniform(-1, 1, (64, 3)))
    rep = compress(spec, sig, 2, 0.0)
    assert rep.kept_details == rep.total_details or rep.max_abs_error < 1e-10
    assert rep.max_abs_error < 1e-10


def test_compress_mixed_signal_monotone():
    from hermwave.signal import sine

    spec = SpaceSpec(0, 2.0)
    sig = sample_function(sine(10.0), 9, 0, 256)
    errs = [
        compress(spec, sig, 2, thr).max_abs_error for thr in (1e-12, 1e-8, 1e-4, 1e-2)
    ]
    assert all(a <= b + 1e-12 for a, b in zip(errs, errs[1:]))


def test_compress_keep_mask_matches_row_max_norm():
    # the column-wise mask equals np.max(|d|, axis=1) > t, rows exactly at t included
    spec = SpaceSpec(0, 2.0)
    rng = np.random.default_rng(23)
    sig = HermiteSignal(7, rng.standard_normal((128, 3)) * np.logspace(-6, 0, 128)[:, None])
    coarse, details = analyze(spec, sig, 3)
    threshold = float(np.sort(np.max(np.abs(details[1].data), axis=1))[10])  # a row's exact norm
    keeps = [np.max(np.abs(d.data), axis=1) > threshold for d in details]
    assert any((np.max(np.abs(d.data), axis=1) == threshold).any() for d in details)
    rep = compress(spec, sig, 3, threshold)
    assert rep.total_details == sum(map(len, details))
    assert rep.kept_details == sum(int(k.sum()) for k in keeps)
    pruned = [HermiteSignal(d.level, np.where(k[:, None], d.data, 0.0)) for d, k in zip(details, keeps)]
    assert rep.reconstruction.data.tobytes() == synthesize(spec, coarse, pruned).data.tobytes()


def test_synthesize_rejects_detail_length_mismatch():
    spec = SpaceSpec(0, 2.0)
    with pytest.raises(ValueError, match="detail level 2, 4 rows: expected 2, 8 rows"):
        synthesize(spec, HermiteSignal(2, np.zeros((8, 3))), [HermiteSignal(2, np.zeros((4, 3)))])
