"""Mask derivation, subdivision operator, limit functions."""

import math

import numpy as np
import pytest

from hermwave.annihilator import SpaceSpec, dilation_matrix
from hermwave.signal import HermiteSignal, exponential, monomial, sample_function
from hermwave.subdivision import (
    A_MINUS_1,
    _mask_symbol,
    _BLOCK,
    _lift,
    _piece_coeffs,
    _refine,
    check_spectral_condition,
    closed_form_deviation,
    closed_form_phi,
    compare_cascade_closed_form,
    interpolatory_residual,
    make_mask,
    render_basic_limit,
    subdivide,
    subdivide_periodic,
)

from golden_data import (
    A_TAPS,
    check_refinement_equation,
    closed_form_phi_pointwise,
    mask_symbol_loop,
    max_tap_dev,
    piece_coeffs_loop,
    predict_roll,
)

D = dilation_matrix(2)


# ----------------------------------------------------------------------
# mask construction
# ----------------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_constant_backward_tap(lam, level):
    m = make_mask(SpaceSpec(0, lam), level)
    assert np.max(np.abs(m.tap(-1) - A_MINUS_1)) < 1e-12
    assert np.max(np.abs(m.tap(0) - D)) < 1e-12


def test_partition_of_unity_across_taps():
    m = make_mask(SpaceSpec(0, 2.0), 0)
    e0 = np.array([1.0, 0.0, 0.0])
    assert np.allclose(m.tap(1) @ e0 + m.tap(-1) @ e0, e0, atol=1e-13)


def test_stationary_limit_matches_reference_taps():
    # exact stationary construction
    m0 = make_mask(SpaceSpec(0, 0.0), 0)
    assert max_tap_dev(m0.symbol, A_TAPS) < 1e-13
    # small-frequency limit approaches it quadratically
    m = make_mask(SpaceSpec(0, 1e-5), 0)
    assert max_tap_dev(m.symbol, A_TAPS) < 1e-8


@pytest.mark.parametrize("lam", [0.5, 2.0, 4.0])
def test_interpolatory_symbol_identity(lam):
    m = make_mask(SpaceSpec(0, lam), 1)
    assert interpolatory_residual(m.symbol) < 1e-12


def test_mask_level_rule_is_frequency_halving():
    a = make_mask(SpaceSpec(0, 2.0), 1)
    b = make_mask(SpaceSpec(0, 1.0), 0)
    assert np.allclose(a.tap(1), b.tap(1), atol=1e-14)


def test_rejects_unsupported_spec():
    with pytest.raises(ValueError):
        make_mask(SpaceSpec(1, 1.0), 0)


def test_rejects_negative_level():
    # a negative level would scale the frequency up, outside the family's levels
    with pytest.raises(ValueError, match=r"^level must be >= 0, got -1$"):
        make_mask(SpaceSpec(0, 2.0), -1)
    with pytest.raises(ValueError, match=r"^level must be >= 0, got -2$"):
        check_spectral_condition(SpaceSpec(0, 2.0), -2, 0)


def test_masks_of_equal_scaled_frequency_share_one_symbol():
    a = make_mask(SpaceSpec(0, 2.0), 1)
    b = make_mask(SpaceSpec(0, 4.0), 2)
    assert a.symbol is b.symbol
    assert (a.level, b.level) == (1, 2)
    assert make_mask(SpaceSpec(0, 2.0), 0).symbol is not a.symbol


def test_mask_keeps_the_callers_spec():
    as_int, as_float = SpaceSpec(0, 2), SpaceSpec(0, 2.0)
    a, b = make_mask(as_int, 0), make_mask(as_float, 0)
    assert a.symbol is b.symbol
    assert a.spec is as_int and type(a.spec.lam) is int
    assert b.spec is as_float and type(b.spec.lam) is float


def test_cached_symbol_is_read_only():
    m = make_mask(SpaceSpec(0, 2.0), 0)
    with pytest.raises(ValueError, match="read-only"):
        m.symbol.coeffs[0, 0, 0] = 1.0
    for k in (-1, 0, 1):
        with pytest.raises(ValueError, match="read-only"):
            m.tap(k)[0, 0] = 1.0
    assert np.array_equal(make_mask(SpaceSpec(0, 2.0), 0).tap(-1), A_MINUS_1)


def test_failed_mask_derivation_is_not_cached():
    for _ in range(2):
        with pytest.raises(ValueError, match="scaled frequency 1000.0"):
            make_mask(SpaceSpec(0, 1000.0), 0)
    with pytest.raises(ValueError):
        make_mask(SpaceSpec(0, None), 0)


#: Scaled frequencies of the bit-equality checks: a grid over the working
#: range, and the 2^-k lam that the CLI and the benchmark use.
MUS = [0.0, *np.geomspace(1e-8, 10.0, 300)]
MUS += [2.0**-k * lam for lam in (0.5, 2.0, 4.0, 8.0) for k in range(8)]


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def test_mask_symbol_bit_equal_to_basis_loop():
    for mu in MUS:
        new, ref = _mask_symbol(mu), mask_symbol_loop(mu)
        assert (new.lo, new.hi) == (ref.lo, ref.hi), mu
        assert np.array_equal(_bits(new.coeffs), _bits(ref.coeffs)), mu


def test_piece_coeffs_bit_equal_to_basis_loop():
    for mu in MUS:
        for j in range(3):
            for new, ref in zip(_piece_coeffs(mu, j), piece_coeffs_loop(mu, j)):
                assert np.array_equal(_bits(new), _bits(ref)), (mu, j)


# ----------------------------------------------------------------------
# subdivision operator
# ----------------------------------------------------------------------

def test_impulse_response_is_mask():
    m = make_mask(SpaceSpec(0, 2.0), 0)
    sig = HermiteSignal(0, np.array([[1.0, 0.0, 0.0]]), start=0)
    out = subdivide(m, sig)
    assert out.start == -1 and len(out) == 3
    # output node j receives A_{j - 2k} input_k: node -1 sees the
    # backward tap, node +1 the forward tap
    e0 = np.array([1.0, 0.0, 0.0])
    assert np.allclose(out.data[0], m.tap(-1) @ e0)
    assert np.allclose(out.data[1], D @ e0)
    assert np.allclose(out.data[2], m.tap(1) @ e0)


def test_even_outputs_copy_inputs_exactly():
    # in v-coordinates the copy carries the power-of-two reweighting D,
    # which is exact in binary floating point
    rng = np.random.default_rng(0)
    m = make_mask(SpaceSpec(0, 2.0), 0)
    sig = HermiteSignal(0, rng.uniform(-1, 1, (10, 3)), start=-3)
    out = subdivide(m, sig)
    assert np.array_equal(out.data[1::2], sig.data @ D.T)
    per = subdivide_periodic(m, HermiteSignal(0, sig.data, 0))
    assert np.array_equal(per.data[0::2], sig.data @ D.T)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("level", [0, 2, 4, 6])
def test_exponential_and_constant_reproduction(lam, level):
    spec = SpaceSpec(0, lam)
    report = check_spectral_condition(
        spec,
        level,
        2,
        functions={
            "1": monomial(0),
            "exp+": exponential(lam),
            "exp-": exponential(-lam),
        },
        halfwidth=2.0,
    )
    assert max(report.values()) < 1e-9


def test_polynomials_not_reproduced():
    # negative control: the constant-backward-tap family reproduces
    # {1, e^{+-lam x}} but no polynomial of degree 1..3
    report = check_spectral_condition(SpaceSpec(0, 2.0), 0, 2)
    assert report["1"] == 0.0
    for name in ("x", "x^2", "x^3"):
        assert report[name] > 1e-5


@pytest.mark.parametrize("lam", [0.0, 0.5, 2.0, 4.0, 8.0])
@pytest.mark.parametrize(
    "nodes", [1, 2, 3, 4, 8, 1024, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]
)
def test_predict_is_bit_identical_to_roll_formula(lam, nodes):
    # a wrap row or a one-row block computed by its own product differs in
    # the last bit on some of these inputs, so they guard the operand layout
    # of the blocked lifting kernel, in refinement and in analysis
    rng = np.random.default_rng(nodes)
    for scale in ([1.0, 1.0, 1.0], [1.0, 1e3, 1e6]):
        for _ in range(8):
            coarse = rng.uniform(-1.0, 1.0, (nodes, 3)) * scale
            odd = rng.uniform(-1.0, 1.0, (nodes, 3)) * scale
            for level in (0, 3):
                mask = make_mask(SpaceSpec(0, lam), level)
                want = predict_roll(mask, coarse)
                assert np.array_equal(_refine(mask, coarse)[1::2].view(np.int64), want.view(np.int64))
                fine = np.empty((2 * nodes, 3))
                fine[0::2], fine[1::2] = coarse @ D.T, odd
                got_coarse, got_details = np.empty((nodes, 3)), np.empty((nodes, 3))
                _lift(mask, got_coarse, fine, got_details, analysis=True)
                assert np.array_equal(got_coarse.view(np.int64), coarse.view(np.int64))
                assert np.array_equal(got_details.view(np.int64), (odd - want).view(np.int64))


def test_subdivide_contracts():
    m = make_mask(SpaceSpec(0, 2.0), 1)
    sig = HermiteSignal(0, np.zeros((4, 3)))
    with pytest.raises(ValueError):
        subdivide(m, sig)


# ----------------------------------------------------------------------
# limit functions
# ----------------------------------------------------------------------

def test_hermite_conditions_of_basic_limit():
    table = render_basic_limit(SpaceSpec(0, 2.0), depth=5)
    at = {round(float(x) * 32): t for t, x in enumerate(table.grid)}
    f0 = table.values[at[0]]
    assert np.allclose(f0, np.eye(3), atol=1e-13)
    for node in (-32, 32):
        assert np.max(np.abs(table.values[at[node]])) < 1e-13


def test_limit_value_at_minus_half():
    table = render_basic_limit(SpaceSpec(0, 2.0), depth=4)
    at = {round(float(x) * 16): t for t, x in enumerate(table.grid)}
    assert table.component(1)[at[-8]] == pytest.approx(-10.0 / 64.0, abs=1e-14)
    assert closed_form_phi(SpaceSpec(0, 2.0), 1, -0.5) == pytest.approx(-5.0 / 32.0)


def test_closed_form_pieces():
    spec = SpaceSpec(0, 2.0)
    lam = 2.0
    s, c = math.sinh, math.cosh
    for x in np.linspace(0.0, 1.0, 33):
        quintic = -6 * x**5 + 15 * x**4 - 10 * x**3 + 1
        assert closed_form_phi(spec, 0, x) == pytest.approx(quintic, abs=1e-13)
        phi1 = (
            x**3 * (3 * x * x - 7 * x + 4) * c(lam)
            - x**3
            * (lam**2 * x * x - 2 * lam**2 * x + lam**2 + 12 * x * x - 30 * x + 20)
            * s(lam)
            / (2 * lam)
            + s(lam * x) / lam
        )
        assert closed_form_phi(spec, 1, x) == pytest.approx(phi1, abs=1e-13)
    for x in np.linspace(-1.0, 0.0, 33):
        assert closed_form_phi(spec, 0, x) == pytest.approx(
            (x + 1) ** 3 * (6 * x * x - 3 * x + 1), abs=1e-13
        )
        assert closed_form_phi(spec, 1, x) == pytest.approx(
            -((x + 1) ** 3) * x * (3 * x - 1), abs=1e-13
        )
        assert closed_form_phi(spec, 2, x) == pytest.approx(
            0.5 * (x + 1) ** 3 * x * x, abs=1e-13
        )


def test_closed_form_hermite_end_conditions():
    spec = SpaceSpec(0, 2.0)
    for j in range(3):
        for i in range(3):
            assert closed_form_phi(spec, j, 0.0, derivative=i) == pytest.approx(
                1.0 if i == j else 0.0, abs=1e-12
            )
            assert closed_form_phi(spec, j, 1.0, derivative=i) == pytest.approx(0.0, abs=1e-12)
    assert closed_form_phi(spec, 1, 1.0) == 0.0
    assert closed_form_phi(spec, 0, 1.5) == 0.0


def test_cascade_close_to_closed_form():
    # the closed-form pieces are not exactly refinable; the cascade limit
    # agrees with them to ~1e-5 at lam=2 (see the acceptance analysis)
    devs = compare_cascade_closed_form(SpaceSpec(0, 2.0), depth=6)
    assert max(devs.values()) < 1e-4


@pytest.mark.parametrize("spec", [SpaceSpec(0, 2.0), SpaceSpec(0, 0.0)])
def test_refinement_equation(spec):
    assert check_refinement_equation(spec, 1, depth=6) < 1e-9
    assert check_refinement_equation(spec, 2, depth=5) < 1e-9


DEPTH7_GRID = np.arange(-128, 129) / 128.0


@pytest.mark.parametrize("lam", [0.0, 0.5, 2.0, 4.0, 8.0])
def test_closed_form_array_matches_pointwise(lam):
    # at x = +-1 the pointwise pieces leave roundoff (1.5e-12 at lam = 8)
    # where the array form returns the exact zero end data; both ends are
    # checked by test_closed_form_exactly_zero_off_the_open_support.
    # Values agree to 1e-13 absolute; derivatives, which reach 1.1e3 at
    # lam = 8, to 1e-13 relative to their largest magnitude on the grid.
    spec = SpaceSpec(0, lam)
    for j in range(3):
        for i in range(3):
            got = closed_form_phi(spec, j, DEPTH7_GRID, derivative=i)
            ref = np.array(
                [closed_form_phi_pointwise(spec, j, float(x), derivative=i) for x in DEPTH7_GRID]
            )
            assert got.shape == DEPTH7_GRID.shape
            bound = 1e-13 * (1.0 if i == 0 else max(1.0, np.max(np.abs(ref))))
            assert np.max(np.abs(got - ref)[1:-1]) <= bound, (j, i)
    value = closed_form_phi(spec, 1, 0.25)
    assert type(value) is float
    assert value == pytest.approx(closed_form_phi_pointwise(spec, 1, 0.25), abs=1e-13)


@pytest.mark.parametrize("lam", [0.0, 2.0, 8.0])
def test_closed_form_exactly_zero_off_the_open_support(lam):
    spec = SpaceSpec(0, lam)
    outside = np.array([-3.0, -1.5, -1.0, 1.0, 1.0 + 2**-20, 2.0])
    for j in range(3):
        for i in range(3):
            assert np.array_equal(closed_form_phi(spec, j, outside, derivative=i), np.zeros(6))
            assert closed_form_phi(spec, j, 1.0, derivative=i) == 0.0
            assert closed_form_phi(spec, j, -1.0, derivative=i) == 0.0


def test_closed_form_rejects_bad_derivative():
    with pytest.raises(ValueError, match="derivative"):
        closed_form_phi(SpaceSpec(0, 2.0), 0, 0.5, derivative=3)


@pytest.mark.parametrize("lam", [0.0, 2.0, 8.0])
def test_compare_cascade_is_closed_form_deviation_of_render(lam):
    spec = SpaceSpec(0, lam)
    table = render_basic_limit(spec, 6, base_level=1)
    devs = compare_cascade_closed_form(spec, depth=6, base_level=1)
    assert devs == closed_form_deviation(spec, table, 1)
    for j in range(3):
        ref = [closed_form_phi_pointwise(spec, j, float(x), level=1) for x in table.grid]
        assert devs[j] == pytest.approx(np.max(np.abs(table.component(j) - ref)), abs=1e-13)
