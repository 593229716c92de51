"""Taylor and cancellation operators: structure, annihilation, limits."""

import math

import mpmath as mp
import numpy as np
import pytest

from hermwave.annihilator import (
    SpaceSpec,
    _h0_matrix,
    check_eigvec_condition,
    check_two_level_identity,
    make_annihilator,
    make_taylor,
    taylor_distance,
)
from hermwave.laurent import max_coeff_dev
from hermwave.signal import exponential, monomial, sample_function
from hermwave.subdivision import closed_form_phi, make_mask

from golden_data import T_TAPS, apply, apply_exact, h0_matrix_entry_formulas, max_tap_dev


# ----------------------------------------------------------------------
# Taylor operator
# ----------------------------------------------------------------------

def test_taylor_order_zero():
    t = make_taylor(0)
    assert np.allclose(t.tap(-1), [[1.0]]) and np.allclose(t.tap(0), [[-1.0]])


def test_taylor_order_two_matches_reference():
    assert max_tap_dev(make_taylor(2), T_TAPS) == 0.0


def test_taylor_annihilates_linear_samples():
    # order-1 operator applied to exact samples of f(x) = x
    spec = SpaceSpec(1, None)
    ann = make_annihilator(spec, 0)
    out = apply_exact(ann, monomial(1), -5, 10)
    assert np.max(np.abs(out)) < 1e-14


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def test_symbol_form_invariant():
    for spec in (SpaceSpec(0, 2.0), SpaceSpec(1, 1.0), SpaceSpec(0, 0.5)):
        for n in range(4):
            ann = make_annihilator(spec, n)
            sym = ann.symbol
            assert (sym.lo, sym.hi) == (-1, 0)
            assert np.array_equal(sym.tap(-1), np.eye(spec.dim))
            # upper-left (p+1)x(p+1) block of H0 equals the Taylor constant part
            tp = make_taylor(spec.p).tap(0)
            assert np.allclose(sym.tap(0)[: spec.p + 1, : spec.p + 1], tp)


def test_hyperbolic_entries():
    ann = make_annihilator(SpaceSpec(0, 2.0), 0)
    h0 = ann.symbol.tap(0)
    assert h0[0, 1] == pytest.approx(-math.sinh(2.0) / 2.0, abs=1e-15)
    assert h0[0, 2] == pytest.approx((1 - math.cosh(2.0)) / 4.0, abs=1e-14)
    assert h0[1, 1] == pytest.approx(-math.cosh(2.0))
    assert h0[2, 1] == pytest.approx(-2.0 * math.sinh(2.0))


def test_level_scaling_halves_frequency():
    a1 = make_annihilator(SpaceSpec(0, 2.0), 1)
    a0 = make_annihilator(SpaceSpec(0, 1.0), 0)
    assert max_coeff_dev(a1.symbol, a0.symbol) == 0.0


def test_p1_block_embedding():
    big = make_annihilator(SpaceSpec(1, 1.0), 0).symbol.tap(0)
    small = make_annihilator(SpaceSpec(0, 1.0), 0).symbol.tap(0)
    assert np.allclose(big[1:, 1:], small)
    assert big[0, 3] == pytest.approx((1.0 - math.sinh(1.0)) / 1.0)
    assert np.max(np.abs(big[1:, 0])) == 0.0


def test_unsupported_p_rejected():
    with pytest.raises(ValueError):
        make_annihilator(SpaceSpec(2, 1.0), 0)


def test_taylor_fallback_at_tiny_frequency():
    ann = make_annihilator(SpaceSpec(0, 1e-9), 0)
    assert max_coeff_dev(ann.symbol, make_taylor(2)) == 0.0


def test_stable_entry_formulas_against_mpmath():
    mp.mp.dps = 60
    for mu in (1e-7, 1e-4, 1e-2, 0.3, 0.7, 2.0):
        m = mp.mpf(mu)
        h0 = _h0_matrix(1, mu)
        sinhc, cosh_m1, x_m_sinh = -h0[1, 2], h0[1, 3], h0[0, 3]
        assert sinhc == pytest.approx(float(mp.sinh(m) / m), rel=1e-14)
        assert cosh_m1 == pytest.approx(float((1 - mp.cosh(m)) / m**2), rel=1e-13)
        assert x_m_sinh == pytest.approx(float((m - mp.sinh(m)) / m**3), rel=1e-13)


@pytest.mark.parametrize("p", [0, 1])
def test_h0_matrix_bit_equal_to_entry_formulas(p):
    mus = list(np.geomspace(1e-8, 40.0, 4000))
    mus += [2.0**-n * lam for lam in (0.5, 1.0, 2.0, 4.0, 8.0) for n in range(25)]
    for mu in mus:
        assert _h0_matrix(p, mu).tobytes() == h0_matrix_entry_formulas(p, mu).tobytes(), mu


# ----------------------------------------------------------------------
# annihilation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 4.0])
def test_annihilates_space_basis(lam):
    spec = SpaceSpec(0, lam)
    for n in range(7):
        ann = make_annihilator(spec, n)
        halfwidth = max(2, math.ceil(1.5 * 2**n))
        for f in (monomial(0), exponential(lam), exponential(-lam)):
            out = apply_exact(ann, f, -halfwidth, 2 * halfwidth)
            # relative to the sample magnitude: exponentials reach
            # e^{lam*halfwidth/2^n}, so an absolute bound is ill-posed
            scale = max(1.0, math.exp(lam * halfwidth / 2**n))
            assert np.max(np.abs(out)) < 1e-12 * scale


def test_p1_annihilates_linear_and_exponentials():
    spec = SpaceSpec(1, 1.0)
    ann = make_annihilator(spec, 0)
    for f in (monomial(0), monomial(1), exponential(1.0), exponential(-1.0)):
        out = apply_exact(ann, f, -4, 8)
        assert np.max(np.abs(out)) < 1e-12


def test_does_not_annihilate_outside_space():
    ann = make_annihilator(SpaceSpec(0, 2.0), 0)
    out = apply_exact(ann, monomial(2), -4, 8)
    assert np.max(np.abs(out)) >= 1e-3


def test_periodic_apply_on_constant():
    ann = make_annihilator(SpaceSpec(0, 2.0), 3)
    sig = sample_function(monomial(0), 3, 0, 64, dim=3)
    out = apply(ann, sig)
    assert np.max(np.abs(out.data)) < 1e-14


def test_apply_contracts():
    ann = make_annihilator(SpaceSpec(0, 2.0), 1)
    sig = sample_function(monomial(0), 0, 0, 8, dim=3)
    with pytest.raises(ValueError):
        apply(ann, sig)  # level mismatch
    sig4 = sample_function(monomial(0), 1, 0, 8, dim=4)
    with pytest.raises(ValueError):
        apply(ann, sig4)  # dimension mismatch


# ----------------------------------------------------------------------
# defining constraints and limits
# ----------------------------------------------------------------------

@pytest.mark.parametrize("spec", [SpaceSpec(0, 2.0), SpaceSpec(0, 0.5), SpaceSpec(1, 1.0)])
@pytest.mark.parametrize("level", [0, 1, 3])
def test_eigvec_condition(spec, level):
    assert check_eigvec_condition(make_annihilator(spec, level)) < 1e-12


@pytest.mark.parametrize("spec", [SpaceSpec(0, 2.0), SpaceSpec(0, None), SpaceSpec(1, 1.0)])
@pytest.mark.parametrize("level", [0, 2])
def test_two_level_identity(spec, level):
    ann_n, ann_n1 = make_annihilator(spec, level), make_annihilator(spec, level + 1)
    assert check_two_level_identity(ann_n, ann_n1) < 1e-12


def test_two_level_identity_needs_consecutive_levels():
    spec = SpaceSpec(0, 2.0)
    for n, n1 in ((1, 1), (2, 1), (0, 2)):
        with pytest.raises(ValueError, match=rf"operator levels \({n}, {n1}\) must be n, n \+ 1"):
            check_two_level_identity(make_annihilator(spec, n), make_annihilator(spec, n1))


# math.sinh raises past mu ~ 710.5; from mu ~ 703.9 on, the product
# mu * sinh(mu) is already inf
@pytest.mark.parametrize("mu", [705.0, 711.0, 1000.0])
def test_local_basis_overflow_is_a_named_error(mu):
    spec = SpaceSpec(0, mu)
    message = rf"^local basis overflows at scaled frequency {mu}$"
    with pytest.raises(ValueError, match=message):
        make_annihilator(spec, 0)
    with pytest.raises(ValueError, match=message):
        make_mask(spec, 0)
    with pytest.raises(ValueError, match=message):
        closed_form_phi(spec, 0, 0.5)


def test_commutation_of_negated_symbols():
    h = make_annihilator(SpaceSpec(0, 2.0), 1).symbol
    assert max_coeff_dev(h.negate_arg().mul(h), h.mul(h.negate_arg())) < 1e-14


def test_taylor_limit_monotone_and_small():
    for lam in (1.0, 4.0):
        spec = SpaceSpec(0, lam)
        dists = [taylor_distance(spec, n) for n in range(4, 13)]
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert taylor_distance(spec, 20) < 1e-6
