"""Reference matrices for the stationary (frequency -> 0) quintic scheme.

All entries are rational; symbols are given as tap maps ``{power: matrix}``.
The high-pass reference is recorded in its conjugate display ``B~#(z)``
(taps -2..0), which is how the reflected-index form is usually written.
"""

import numpy as np

from hermwave.laurent import unit_circle_points

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


def max_tap_dev(symbol, taps: dict) -> float:
    """Max entrywise deviation of a MatLaurent from a golden tap map."""
    keys = set(taps) | set(symbol.taps())
    return max(
        float(np.max(np.abs(symbol.tap(k) - taps.get(k, np.zeros((3, 3))))))
        for k in keys
    )


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
    from hermwave.signal import monomial
    from hermwave.subdivision import _local_basis, _piece_coeffs

    if not -1.0 <= x <= 1.0:
        return 0.0
    mu = spec.frequency_at(level)
    left, right = _piece_coeffs(mu, j)
    if x >= 0.0:
        return float(sum(c * f(x, derivative) for c, f in zip(right, _local_basis(mu))))
    basis = [monomial(q) for q in (3, 4, 5)]
    return float(sum(c * f(x + 1.0, derivative) for c, f in zip(left, basis)))


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
