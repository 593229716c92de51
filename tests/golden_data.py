"""Reference data and reference implementations for the tests.

The matrices are those of the stationary (frequency -> 0) quintic scheme.
All entries are rational; symbols are given as tap maps ``{power: matrix}``.
The high-pass reference is recorded in its conjugate display ``B~#(z)``
(taps -2..0), which is how the reflected-index form is usually written.
The functions are slower or older formulations that the package is
measured against, and operators and checks only the tests use.
"""

import math

import numpy as np

from hermwave.annihilator import Annihilator, SpaceSpec, _x_m_sinh, inverse_dilation_matrix
from hermwave.laurent import MatLaurent, max_coeff_dev
from hermwave.signal import HermiteSignal, sample_function
from hermwave.subdivision import LevelMask, make_mask, render_basic_limit

D = np.diag([1.0, 0.5, 0.25])

#: Stationary mask taps of A(z).
A_TAPS = {
    -1: np.array([[32, -10, 1], [60, -14, 1], [0, 24, -4]]) / 64.0,
    0: D,
    1: np.array([[32, 10, 1], [-60, -14, -1], [0, -24, -4]]) / 64.0,
}

#: Taylor operator T(z) taps (order 2).
T_TAPS = {
    -1: np.eye(3),
    0: np.array([[-1.0, -1.0, -0.5], [0.0, -1.0, -1.0], [0.0, 0.0, -1.0]]),
}

#: Subdivision quotient R(z) of T(z) A(z) = R(z) T(z^2).
R_TAPS = {
    0: np.array([[32, -10, 1], [60, -14, 1], [0, 24, -4]]) / 64.0,
    1: np.array([[-28, 12, 0], [-60, 22, 3], [0, -24, 20]]) / 64.0,
}

#: Conjugate high-pass display B~#(z) = (1/(16 z^2)) [...] as taps -2..0.
B_TILDE_SHARP_TAPS = {
    -2: np.array([[-8, 5, -1], [-15, 7, -1], [0, -12, 4]]) / 16.0,
    -1: np.eye(3),
    0: np.array([[-8, -5, -1], [15, 7, 1], [0, 12, 4]]) / 16.0,
}

#: Wavelet quotient S(z) of B~#(z) = S(z) T(z).
S_TAPS = {
    -1: np.array([[-16, 10, -2], [-30, 14, -2], [0, -24, 8]]) / 32.0,
    0: np.array([[16, -6, 0], [-30, 16, -3], [0, -24, 16]]) / 32.0,
}


# ----------------------------------------------------------------------
# dict-based symbol operations: the reference the coefficient-array
# algebra of MatLaurent must match bit for bit
# ----------------------------------------------------------------------

def dict_add(self, other):
    lo = min(self.lo, other.lo)
    hi = max(self.hi, other.hi)
    return MatLaurent.from_taps(
        self.dim, {k: self.tap(k) + other.tap(k) for k in range(lo, hi + 1)}
    )


def dict_mul(self, other):
    out = {}
    for i, a in self.taps().items():
        for j, b in other.taps().items():
            out[i + j] = out.get(i + j, 0) + a @ b
    return MatLaurent.from_taps(self.dim, out)


def dict_scale(self, s):
    return MatLaurent.from_taps(self.dim, {k: s * m for k, m in self.taps().items()})


def dict_involution(self):
    return MatLaurent.from_taps(self.dim, {-k: m.T for k, m in self.taps().items()})


def dict_negate_arg(self):
    return MatLaurent.from_taps(
        self.dim, {k: ((-1) ** k) * m for k, m in self.taps().items()}
    )


def dict_upsample(self):
    return MatLaurent.from_taps(self.dim, {2 * k: m for k, m in self.taps().items()})


def symbol_from_json(d: dict) -> MatLaurent:
    """The symbol of ``MatLaurent.to_json_dict``'s ``{dim, taps: [{k, matrix}]}``."""
    dim = int(d["dim"])
    return MatLaurent.from_taps(dim, {int(t["k"]): np.reshape(t["matrix"], (dim, dim)) for t in d["taps"]})


def max_tap_dev(symbol, taps: dict) -> float:
    """Max entrywise deviation of a MatLaurent from a golden tap map."""
    keys = set(taps) | set(symbol.taps())
    return max(
        float(np.max(np.abs(symbol.tap(k) - taps.get(k, np.zeros((3, 3))))))
        for k in keys
    )


def unit_circle_points(count: int, seed: int | None = None) -> np.ndarray:
    """``count`` points on the unit circle.

    Deterministic equispaced points when ``seed`` is None (offset to avoid
    the trivial ``z = 1``), otherwise uniformly random phases.
    """
    if seed is None:
        theta = 2 * np.pi * (np.arange(count) + 0.37) / count
    else:
        theta = np.random.default_rng(seed).uniform(0, 2 * np.pi, count)
    return np.exp(1j * theta)


def sampled_identity_residual(factors, target, points: int = 64) -> float:
    """Sampled form of ``F(z) + F(-z) = 2 target``, ``F`` the product of ``factors``.

    The reference the exact coefficient checks are measured against:
    every factor is evaluated with ``MatLaurent.eval`` at
    ``unit_circle_points(points)`` and at their negatives.
    """

    def value(z):
        out = np.eye(len(target))
        for f in factors:
            out = out @ f.eval(z)
        return out

    return max(
        float(np.max(np.abs(value(z) + value(-z) - 2.0 * target)))
        for z in unit_circle_points(points)
    )


def sampled_biorthogonality(fb, points: int = 64) -> float:
    """The four identities ``P#(z)Q(z) + P#(-z)Q(-z) = 2I or 0`` at samples."""
    eye, zero = np.eye(fb.dim), np.zeros((fb.dim, fb.dim))
    pairs = [
        (fb.A_tilde, fb.A, eye),
        (fb.A_tilde, fb.B, zero),
        (fb.B_tilde, fb.A, zero),
        (fb.B_tilde, fb.B, eye),
    ]
    return max(
        sampled_identity_residual([p.involution(), q], target, points)
        for p, q, target in pairs
    )


def closed_form_phi_pointwise(spec, j: int, x: float, level: int = 0, derivative: int = 0) -> float:
    """One point of ``phi_j`` by the scalar ``math`` formula, piece by piece.

    The reference the array evaluation of ``closed_form_phi`` is measured
    against: the local basis with ``math.sinh``/``math.cosh`` at a single
    float ``x``, summed coefficient by coefficient.
    """
    from hermwave.annihilator import _local_basis
    from hermwave.signal import monomial
    from hermwave.subdivision import _scaled

    if not -1.0 <= x <= 1.0:
        return 0.0
    mu = spec.frequency_at(level)
    left, right = _scaled(mu).pieces[j]
    if x >= 0.0:
        return float(sum(c * f(x, derivative) for c, f in zip(right, _local_basis(mu))))
    basis = [monomial(q) for q in (3, 4, 5)]
    return float(sum(c * f(x + 1.0, derivative) for c, f in zip(left, basis)))


def factorization_residuals_product(fb, ann_n, ann_n1, r, s) -> tuple[float, float]:
    """The residuals of the quotients ``r``, ``s`` with each product formed again.

    ``factorization_pair`` reads its residuals off its two divisions;
    they must match this formula bit for bit.
    """
    res_r = max_coeff_dev(ann_n1.symbol.mul(fb.A), r.mul(ann_n.symbol.upsample()))
    res_s = max_coeff_dev(fb.B_tilde.involution(), s.mul(ann_n1.symbol))
    return res_r, res_s


def vanishing_moments_loop(fb, f, halfwidth: float = 2.0) -> float:
    """``check_vanishing_moments`` as one matrix-vector product per node and tap."""
    import math

    from hermwave.signal import sample_function

    n1 = fb.level + 1
    m = max(2, math.ceil(halfwidth * 2**n1))
    v = sample_function(f, n1, -m, 2 * m + 1, dim=fb.dim).data
    taps = sorted(fb.B_tilde.taps().items())
    t0 = taps[0][0]
    count = (len(v) - (taps[-1][0] - t0) - 1) // 2 + 1
    res = 0.0
    for k in range(count):
        acc = np.zeros(fb.dim)
        for t, mat in taps:
            acc += mat.T @ v[2 * k + (t - t0)]
        res = max(res, float(np.max(np.abs(acc))))
    return res


# ----------------------------------------------------------------------
# operators and checks used only as test oracles
# ----------------------------------------------------------------------

def apply(ann: Annihilator, signal: HermiteSignal) -> HermiteSignal:
    """Convolve the operator taps with a signal (periodic extension).

    Output node ``j`` is ``v_{j+1} + H0 v_j``; exact samples of
    ``V_{p,L}`` elements map to (numerically) zero.
    """
    if signal.level != ann.level:
        raise ValueError(f"level mismatch: signal {signal.level} vs operator {ann.level}")
    if signal.dim != ann.dim:
        raise ValueError(f"dimension mismatch: signal {signal.dim} vs operator {ann.dim}")
    h0 = ann.symbol.tap(0)
    v = signal.data
    out = np.roll(v, -1, axis=0) + v @ h0.T
    return HermiteSignal(signal.level, out, signal.start)


def apply_exact(ann: Annihilator, f, start: int, count: int) -> np.ndarray:
    """Operator output on exact samples of ``f``, stencil fully in range.

    Avoids the periodic wrap (which is wrong for non-periodic ``f``) by
    sampling one extra node; returns the ``count`` valid output vectors.
    """
    sig = sample_function(f, ann.level, start, count + 1, ann.dim)
    v = sig.data
    return v[1:] + v[:-1] @ ann.symbol.tap(0).T


def norms(signal: HermiteSignal) -> tuple[float, float]:
    """``(max-abs, sum-of-squares energy)`` of the signal entries."""
    if signal.data.size == 0:
        return 0.0, 0.0
    return float(np.max(np.abs(signal.data))), float(np.sum(signal.data**2))


def check_refinement_equation(spec: SpaceSpec, level: int, depth: int) -> float:
    """Max residual of the two-scale relation between consecutive levels:

    ``F[n-1](x) = sum_k D^-1 F[n](2x - k) A[n-1]_k``  (n = ``level``),
    with both sides rendered by cascade on a common dyadic grid.
    """
    coarse = render_basic_limit(spec, depth, base_level=level - 1)
    fine = render_basic_limit(spec, depth, base_level=level)
    mask = make_mask(spec, level - 1)
    dinv = inverse_dilation_matrix(2)
    half = 2**depth
    fine_at = {int(round(g * half)): fine.values[t] for t, g in enumerate(fine.grid)}

    def fmat(idx: int) -> np.ndarray:
        return fine_at.get(idx, np.zeros((3, 3)))

    res = 0.0
    for t, x in enumerate(coarse.grid):
        idx2 = int(round(2 * x * half))
        rhs = sum(dinv @ fmat(idx2 - k * half) @ mask.tap(k) for k in (-1, 0, 1))
        res = max(res, float(np.max(np.abs(coarse.values[t] - rhs))))
    return res


def predict_roll(mask: LevelMask, coarse: np.ndarray) -> np.ndarray:
    """The periodic odd-node prediction with the wrap written as ``np.roll``.

    The blocked lifting kernel ``subdivision._lift`` must match byte for byte.
    """
    return coarse @ mask.tap(1).T + np.roll(coarse, -1, axis=0) @ mask.tap(-1).T


def analyze_roll(spec: SpaceSpec, level: int, data: np.ndarray, levels: int):
    """Periodic analysis on whole-level arrays, with the prediction of :func:`predict_roll`.

    Returns the coarse array and the detail arrays, finest first; the
    blocked ``filterbank.analyze`` must match byte for byte.
    """
    dinv_t = inverse_dilation_matrix(2).T
    c, details = data, []
    for step in range(1, levels + 1):
        odd, c = c[1::2], c[0::2] @ dinv_t
        details.append(odd - predict_roll(make_mask(spec, level - step), c))
    return c, details


def synthesize_roll(spec: SpaceSpec, level: int, coarse: np.ndarray, details: list) -> np.ndarray:
    """Inverse of :func:`analyze_roll` from the coarse ``level``, on whole-level arrays."""
    c = coarse
    for d in reversed(details):
        mask = make_mask(spec, level)
        fine = np.empty((2 * len(c), 3))
        fine[0::2] = c @ mask.tap(0).T
        fine[1::2] = predict_roll(mask, c) + d
        c, level = fine, level + 1
    return c


def sinhc(mu: float) -> float:
    """``sinh(mu)/mu``, stable for small ``mu``."""
    if mu < 1e-8:
        return 1.0 + mu * mu / 6.0
    return math.sinh(mu) / mu


def cosh_m1(mu: float) -> float:
    """``(1 - cosh(mu))/mu^2`` via ``-2 sinh(mu/2)^2 / mu^2`` (cancellation-free)."""
    if mu < 1e-8:
        return -0.5 - mu * mu / 24.0
    s = math.sinh(mu / 2.0)
    return -2.0 * s * s / (mu * mu)


def h0_matrix_entry_formulas(p: int, mu: float) -> np.ndarray:
    """The cancellation operator's constant tap, entry by entry.

    The constant taps of ``make_annihilator`` (``p = 0``) and of
    ``annihilator._h0_p1`` (``p = 1``), which read the entries off the
    local basis, must match bit for bit.
    """
    c, s = math.cosh(mu), math.sinh(mu)
    core = np.array(
        [
            [-1.0, -sinhc(mu), cosh_m1(mu)],
            [0.0, -c, -sinhc(mu)],
            [0.0, -mu * s, -c],
        ]
    )
    if p == 0:
        return core
    h0 = np.zeros((4, 4))
    h0[0] = [-1.0, -1.0, cosh_m1(mu), _x_m_sinh(mu)]
    h0[1:, 1:] = core
    return h0


# ----------------------------------------------------------------------
# the mask and closed-form piece systems assembled one basis function at a
# time: the mask and pieces of the record ``subdivision._scaled``, which
# read the systems off ``annihilator._hermite_data``, must match them bit for bit
# ----------------------------------------------------------------------

def _derivs(f, t: float) -> np.ndarray:
    return np.array([f(t, j) for j in range(3)])


def mask_symbol_loop(mu: float) -> MatLaurent:
    """``subdivision._scaled(mu).mask`` with one row of the 6x6 system per basis function."""
    from hermwave.annihilator import _local_basis, dilation_matrix
    from hermwave.subdivision import A_MINUS_1, COND_LIMIT

    basis = _local_basis(mu)
    d = dilation_matrix(2)
    m = np.zeros((6, 6))
    rhs = np.zeros((6, 3))
    try:
        for r, f in enumerate(basis):
            m[r, :3] = _derivs(f, 0.0)
            m[r, 3:] = _derivs(f, 1.0)
            rhs[r] = d @ _derivs(f, 0.5)
    except OverflowError as exc:
        raise ValueError(f"local basis overflows at scaled frequency {mu}") from exc
    if np.linalg.cond(m) > COND_LIMIT:
        raise ValueError(
            f"interpolation system ill conditioned at scaled frequency {mu}"
        )
    sol = np.linalg.solve(m, rhs)
    a1 = sol[:3].T
    am1 = sol[3:].T
    if np.max(np.abs(am1 - A_MINUS_1)) > 1e-11:
        raise AssertionError("derived mask violates the constant backward tap")
    return MatLaurent.from_taps(3, {-1: am1, 0: d, 1: a1})


def piece_coeffs_loop(mu: float, j: int) -> tuple[np.ndarray, np.ndarray]:
    """``subdivision._scaled(mu).pieces[j]`` with one column of each system per basis function."""
    from hermwave.annihilator import _local_basis
    from hermwave.signal import monomial

    basis = _local_basis(mu)
    m = np.zeros((6, 6))
    for c, f in enumerate(basis):
        m[:3, c] = _derivs(f, 0.0)
        m[3:, c] = _derivs(f, 1.0)
    rhs = np.zeros(6)
    rhs[j] = 1.0
    right = np.linalg.solve(m, rhs)
    left_basis = [monomial(q) for q in (3, 4, 5)]
    ml = np.zeros((3, 3))
    for c, f in enumerate(left_basis):
        ml[:, c] = _derivs(f, 1.0)
    rl = np.zeros(3)
    rl[j] = 1.0
    left = np.linalg.solve(ml, rl)
    return left, right
