"""Matrix Laurent polynomial algebra: ring axioms, involution, division."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermwave.laurent import (
    DivisionError,
    MatLaurent,
    even_part_dev,
    max_coeff_dev,
)

from golden_data import (
    A_TAPS,
    R_TAPS,
    T_TAPS,
    dict_add,
    dict_involution,
    dict_mul,
    dict_negate_arg,
    dict_scale,
    dict_upsample,
    max_tap_dev,
    sampled_identity_residual,
    symbol_from_json,
    unit_circle_points,
)


def rand_symbol(rng, dim=3, max_taps=4) -> MatLaurent:
    n = int(rng.integers(1, max_taps + 1))
    lo = int(rng.integers(-3, 3))
    return MatLaurent.from_taps(
        dim, {lo + i: rng.uniform(-1, 1, (dim, dim)) for i in range(n)}
    )


symbols = st.integers(0, 2**32 - 1).map(
    lambda s: rand_symbol(np.random.default_rng(s))
)


# ----------------------------------------------------------------------
# construction / normalization
# ----------------------------------------------------------------------

def test_trimming_normalizes_support():
    p = MatLaurent.from_taps(2, {-2: np.zeros((2, 2)), 0: np.eye(2), 3: 1e-15 * np.ones((2, 2))})
    assert (p.lo, p.hi) == (0, 0)


def test_zero_symbol_normal_form():
    z = MatLaurent.from_taps(2, {5: np.zeros((2, 2))})
    assert z.is_zero and (z.lo, z.hi) == (0, 0)


def test_equality_tolerance():
    p = MatLaurent.from_taps(2, {0: np.eye(2)})
    q = MatLaurent.from_taps(2, {0: np.eye(2) + 1e-13})
    r = MatLaurent.from_taps(2, {0: np.eye(2) + 1e-11})
    assert p == q and p != r


def test_immutability():
    p = MatLaurent.identity(3)
    with pytest.raises(ValueError):
        p.coeffs[0, 0, 0] = 5.0


# ----------------------------------------------------------------------
# add / mul
# ----------------------------------------------------------------------

def test_add_identity_and_inverse():
    rng = np.random.default_rng(0)
    p = rand_symbol(rng)
    assert p.add(MatLaurent.zero(3)) == p
    assert p.add(p.scale(-1.0)).is_zero


def test_add_disjoint_supports():
    s = MatLaurent.identity(3, -1).add(MatLaurent.identity(3, 1))
    assert np.allclose(s.tap(-1), np.eye(3)) and np.allclose(s.tap(1), np.eye(3))
    assert np.max(np.abs(s.tap(0))) == 0.0


def test_mul_identity_and_shift():
    rng = np.random.default_rng(1)
    q = rand_symbol(rng)
    assert MatLaurent.identity(3).mul(q) == q
    assert MatLaurent.identity(3, 1).mul(MatLaurent.identity(3, -1)) == MatLaurent.identity(3)


def test_mul_two_tap_square():
    # for H(z) = z^-1 I + H0: H(-z) H(z) = -z^-2 I + H0^2
    # (the cross terms in z^-1 cancel)
    rng = np.random.default_rng(2)
    h0 = rng.uniform(-1, 1, (3, 3))
    h = MatLaurent.from_taps(3, {-1: np.eye(3), 0: h0})
    prod = h.negate_arg().mul(h)
    expect = MatLaurent.from_taps(3, {-2: -np.eye(3), 0: h0 @ h0})
    assert max_coeff_dev(prod, expect) < 1e-13


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        MatLaurent.identity(2).add(MatLaurent.identity(3))
    with pytest.raises(ValueError):
        MatLaurent.identity(2).mul(MatLaurent.identity(3))


@settings(max_examples=50, deadline=None)
@given(symbols, symbols, symbols)
def test_ring_axioms(p, q, r):
    assert max_coeff_dev(p.mul(q).mul(r), p.mul(q.mul(r))) < 1e-13
    assert max_coeff_dev(p.add(q).add(r), p.add(q.add(r))) < 1e-13
    assert max_coeff_dev(p.mul(q.add(r)), p.mul(q).add(p.mul(r))) < 1e-13
    assert max_coeff_dev(p.add(q).mul(r), p.mul(r).add(q.mul(r))) < 1e-13


# ----------------------------------------------------------------------
# the coefficient-array algebra against the dict-based reference
# ----------------------------------------------------------------------

def assert_same(p: MatLaurent, q: MatLaurent) -> None:
    assert (p.dim, p.lo, p.hi) == (q.dim, q.lo, q.hi)
    assert np.array_equal(p.coeffs, q.coeffs)


scales = st.sampled_from([0.0, 1e-15, -1.0]) | st.floats(-10.0, 10.0)


@settings(max_examples=50, deadline=None)
@given(symbols, symbols, scales)
def test_array_ops_match_dict_reference(p, q, s):
    assert_same(p.add(q), dict_add(p, q))
    assert_same(p.mul(q), dict_mul(p, q))
    assert_same(p.scale(s), dict_scale(p, s))
    assert_same(p.involution(), dict_involution(p))
    assert_same(p.negate_arg(), dict_negate_arg(p))
    assert_same(p.upsample(), dict_upsample(p))
    # interior zero taps on either side of a product
    assert_same(p.upsample().mul(q), dict_mul(dict_upsample(p), q))
    assert_same(q.mul(p.upsample()), dict_mul(q, dict_upsample(p)))


def test_interior_tap_below_trim_tol_is_zeroed():
    rng = np.random.default_rng(8)
    a, b, c = (rng.uniform(-1, 1, (3, 3)) for _ in range(3))
    p = MatLaurent.from_taps(3, {0: a, 1: b, 2: c})
    q = MatLaurent.from_taps(3, {1: -b + 1e-15})
    s = p.add(q)
    assert (s.lo, s.hi) == (0, 2)
    assert np.array_equal(s.tap(1), np.zeros((3, 3)))
    assert sorted(s.taps()) == [0, 2]
    assert_same(s, dict_add(p, q))


def test_a_nan_tap_is_never_trimmed():
    nan = np.full((3, 3), 1e-16)
    nan[1, 2] = np.nan
    p = MatLaurent.from_taps(3, {0: nan, 1: np.eye(3)})
    assert (p.lo, p.hi) == (0, 1) and sorted(p.taps()) == [0, 1]
    assert np.isnan(p.tap(0)[1, 2])
    with np.errstate(invalid="ignore"):
        assert np.isnan(max_coeff_dev(p.mul(p), MatLaurent.identity(3, power=2)))
        with pytest.raises(DivisionError, match=r"residual nan"):
            p.divide_right(MatLaurent.identity(3))


def test_cancelling_end_taps_shrink_the_window():
    rng = np.random.default_rng(9)
    a, b, c = (rng.uniform(-1, 1, (3, 3)) for _ in range(3))
    p = MatLaurent.from_taps(3, {-1: a, 0: b, 1: c})
    q = MatLaurent.from_taps(3, {-1: -a, 1: -c})
    s = p.add(q)
    assert (s.lo, s.hi) == (0, 0)
    assert np.array_equal(s.coeffs[0], b)
    assert_same(s, dict_add(p, q))


def test_product_with_zero_symbol():
    p = rand_symbol(np.random.default_rng(10))
    zero = MatLaurent.zero(3)
    for prod in (p.mul(zero), zero.mul(p)):
        assert_same(prod, zero)
    assert_same(p.mul(zero), dict_mul(p, zero))


def test_difference_with_itself_is_zero_normal_form():
    p = rand_symbol(np.random.default_rng(11))
    d = p.add(p.scale(-1.0))
    assert d.is_zero
    assert_same(d, MatLaurent.zero(3))


# ----------------------------------------------------------------------
# involution / substitutions / eval
# ----------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(symbols, symbols)
def test_involution_antihomomorphism(p, q):
    assert max_coeff_dev(p.mul(q).involution(), q.involution().mul(p.involution())) < 1e-13
    assert p.involution().involution() == p


def test_involution_shifts():
    assert MatLaurent.identity(3, 1).involution() == MatLaurent.identity(3, -1)


def test_involution_of_stationary_mask():
    a = MatLaurent.from_taps(3, A_TAPS)
    sharp = a.involution()
    # tap -1 of the conjugate is the transpose of the forward tap
    assert np.allclose(sharp.tap(-1), A_TAPS[1].T)
    assert sharp.tap(-1)[1, 0] == pytest.approx(10 / 64)
    assert sharp.tap(-1)[2, 1] == pytest.approx(-1 / 64)


def test_negate_arg():
    p = MatLaurent.from_taps(2, {-1: np.eye(2), 0: 2 * np.eye(2), 1: 3 * np.eye(2)})
    n = p.negate_arg()
    assert np.allclose(n.tap(-1), -np.eye(2)) and np.allclose(n.tap(1), -3 * np.eye(2))
    assert n.negate_arg() == p
    assert MatLaurent.identity(2).negate_arg() == MatLaurent.identity(2)


def test_upsample_taps_and_eval():
    rng = np.random.default_rng(3)
    p = rand_symbol(rng)
    up = p.upsample()
    for z in unit_circle_points(16):
        assert np.max(np.abs(up.eval(z) - p.eval(z * z))) < 1e-12


def test_eval_homomorphism():
    rng = np.random.default_rng(4)
    p, q = rand_symbol(rng), rand_symbol(rng)
    prod = p.mul(q)
    for z in unit_circle_points(32):
        assert np.max(np.abs(prod.eval(z) - p.eval(z) @ q.eval(z))) < 1e-12


def test_eval_of_stationary_symbols():
    a = MatLaurent.from_taps(3, A_TAPS)
    expect = np.array([[128, 0, 2], [0, 4, 0], [0, 0, 8]]) / 64.0
    assert np.max(np.abs(a.eval(1.0) - expect)) < 1e-14
    t = MatLaurent.from_taps(3, T_TAPS)
    expect_t = np.array([[0, -1, -0.5], [0, 0, -1], [0, 0, 0]])
    assert np.max(np.abs(t.eval(1.0) - expect_t)) < 1e-14


@settings(max_examples=50, deadline=None)
@given(symbols, st.sampled_from([0.0, 1.0]))
def test_even_part_dev_bounded_by_samples(p, scale):
    # even-part taps are DFT coefficients of the 64 samples, so the exact
    # residual never reads above the sampled one beyond rounding
    target = scale * np.eye(3)
    exact = even_part_dev(p, target)
    sampled = sampled_identity_residual([p], target, points=64)
    assert exact <= sampled + 1e-13


def test_even_part_dev_reads_even_taps_only():
    zero = np.zeros((3, 3))
    assert even_part_dev(MatLaurent.identity(3, 1), zero) == 0.0
    assert even_part_dev(MatLaurent.identity(3, -2), zero) == 2.0
    a = MatLaurent.from_taps(3, A_TAPS)
    assert even_part_dev(a, A_TAPS[0]) == 0.0
    assert even_part_dev(a, np.eye(3)) == 2 * 0.75


def test_eval_at_zero_rejected():
    with pytest.raises(ValueError):
        MatLaurent.identity(2).eval(0)


# ----------------------------------------------------------------------
# divide_right
# ----------------------------------------------------------------------

def test_divide_right_trivial():
    rng = np.random.default_rng(5)
    h0 = rng.uniform(-1, 1, (3, 3))
    h2 = MatLaurent.from_taps(3, {-2: np.eye(3), 0: h0})
    assert h2.divide_right(h2) == MatLaurent.identity(3)
    shifted = MatLaurent.identity(3, 1).mul(h2)
    assert shifted.divide_right(h2) == MatLaurent.identity(3, 1)


def test_divide_right_quintic_factorization():
    t = MatLaurent.from_taps(3, T_TAPS)
    a = MatLaurent.from_taps(3, A_TAPS)
    r = t.mul(a).divide_right(t.upsample())
    assert max_tap_dev(r, R_TAPS) < 1e-13


@settings(max_examples=30, deadline=None)
@given(symbols, st.integers(0, 2**32 - 1))
def test_divide_right_soundness(q, seed):
    rng = np.random.default_rng(seed)
    h0 = rng.uniform(-1, 1, (3, 3))
    h2 = MatLaurent.from_taps(3, {-2: np.eye(3), 0: h0})
    l = q.mul(h2)
    r = l.divide_right(h2)
    assert max_coeff_dev(r.mul(h2), l) < 1e-10


def test_divide_right_failure_detected():
    rng = np.random.default_rng(6)
    h2 = MatLaurent.from_taps(3, {-2: np.eye(3), 0: rng.uniform(-1, 1, (3, 3))})
    bad = rand_symbol(rng).mul(h2).add(
        MatLaurent.from_taps(3, {0: 1e-3 * np.eye(3)})
    )
    with pytest.raises(DivisionError):
        bad.divide_right(h2)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def _json_trip(p: MatLaurent) -> MatLaurent:
    return symbol_from_json(json.loads(json.dumps(p.to_json_dict())))


def test_json_roundtrip_bit_exact():
    rng = np.random.default_rng(7)
    p = rand_symbol(rng)
    q = _json_trip(p)
    assert q.lo == p.lo and q.hi == p.hi
    assert np.array_equal(q.coeffs, p.coeffs)
    # stable across a second trip
    assert json.dumps(_json_trip(q).to_json_dict()) == json.dumps(q.to_json_dict())


def test_json_schema_shape():
    p = MatLaurent.from_taps(2, {1: np.arange(4.0).reshape(2, 2)})
    d = json.loads(json.dumps(p.to_json_dict()))
    assert d["dim"] == 2 and d["taps"] == [{"k": 1, "matrix": [0.0, 1.0, 2.0, 3.0]}]


def test_mask_roundtrip():
    m = MatLaurent.from_taps(3, A_TAPS)
    m2 = symbol_from_json(m.to_json_dict())
    assert m2 == m
    assert list(range(m.lo, m.hi + 1)) == [-1, 0, 1]
