"""Taylor and cancellation operators for Hermite data.

The cancellation operator ``H[n]`` of the space

    V_{p,L} = span{1, x, ..., x^p, e^{lam x}, e^{-lam x}}

is the minimal convolution operator annihilating exact v-coordinate
samples of every element of ``V_{p,L}`` at level ``n``.  Its symbol has
the two-tap form ``z^-1 I + H0`` and reduces entrywise to the complete
Taylor operator as the scaled frequency ``mu = 2^-n lam`` tends to 0.

The one evaluation of the local Hermite data (:func:`_hermite_data`)
lives here: ``H0``, the subdivision mask and the closed-form pieces are
all read off it.

Only ``p in {0, 1}`` with a single real frequency pair is implemented;
larger ``p`` with exponentials fails loudly rather than approximating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laurent import MatLaurent, max_coeff_dev
from .signal import monomial

#: Below this scaled frequency the constructor returns the Taylor operator.
TAYLOR_FALLBACK_MU = 1e-8

#: Below this scaled frequency removable-cancellation entries use series.
SERIES_MU = 0.5


@dataclass(frozen=True)
class SpaceSpec:
    """Identifies ``V_{p,L}`` and the derived Hermite order.

    Attributes
    ----------
    p : int
        Polynomial degree (``1, x, ..., x^p`` belong to the space).
    lam : float or None
        Frequency of the exponential pair ``e^{+-lam x}``; ``None`` means
        a purely polynomial space (``r = 0``), while ``0.0`` selects the
        stationary (Taylor) limit of the one-pair family (``r = 1``).
    """

    p: int
    lam: float | None = None

    def __post_init__(self):
        if self.p < 0:
            raise ValueError("p must be nonnegative")
        if self.lam is not None and not math.isfinite(self.lam):
            raise ValueError(f"frequency lambda must be finite, got {self.lam}")
        if self.lam is not None and self.lam < 0:
            raise ValueError("frequency must be nonnegative (or None for pure polynomials)")

    @property
    def r(self) -> int:
        return 0 if self.lam is None else 1

    @property
    def d(self) -> int:
        """Hermite order ``d = p + 2r``."""
        return self.p + 2 * self.r

    @property
    def dim(self) -> int:
        return self.d + 1

    def frequency_at(self, level: int) -> float:
        """Scaled frequency ``mu = 2^-level * lam`` (0 when purely polynomial)."""
        return 0.0 if self.lam is None else 2.0 ** (-level) * self.lam


def dilation_matrix(d: int) -> np.ndarray:
    """The diagonal dilation weight matrix ``D = diag(1, 1/2, ..., 2^-d)``."""
    return np.diag([2.0**-j for j in range(d + 1)])


def inverse_dilation_matrix(d: int) -> np.ndarray:
    """``D^-1 = diag(1, 2, ..., 2^d)``; its entries are exact powers of two."""
    return np.diag([2.0**j for j in range(d + 1)])


@dataclass(frozen=True)
class Annihilator:
    """The level-``n`` cancellation operator, stored as its symbol.

    Invariants: the symbol has support ``[-1, 0]`` with identity leading
    tap, and the upper-left ``(p+1) x (p+1)`` block of the constant tap
    equals the constant part of the Taylor operator.
    """

    level: int
    spec: SpaceSpec
    symbol: MatLaurent

    @property
    def dim(self) -> int:
        return self.symbol.dim


def make_taylor(d: int) -> MatLaurent:
    """Symbol of the complete Taylor operator of order ``d``.

    ``(d+1) x (d+1)``, diagonal ``z^-1 - 1``, entry ``(i, j)`` for
    ``j > i`` equal to ``-1/(j-i)!``.
    """
    if d < 0:
        raise ValueError("order must be nonnegative")
    h0 = np.zeros((d + 1, d + 1))
    for i in range(d + 1):
        for j in range(i, d + 1):
            h0[i, j] = -1.0 / math.factorial(j - i)
    return MatLaurent.from_taps(d + 1, {-1: np.eye(d + 1), 0: h0})


def _local_basis(mu: float, sinh=math.sinh, cosh=math.cosh):
    """The six local basis functions on [0, 1] with two derivatives each.

    Returns callables ``f(t, j)``.  The hyperbolic pair is taken in the
    cancellation-free combinations ``sinh(mu t)/mu`` and
    ``(cosh(mu t) - 1)/mu^2`` (same span), whose ``mu -> 0`` limits are
    ``t`` and ``t^2/2``; this keeps the interpolation system uniformly
    well conditioned down to the stationary case.

    ``t`` is a float for the ``math`` pair (the mask and piece solves at
    ``t`` in ``{0, 1/2, 1}``) or an array for ``np.sinh``/``np.cosh``
    (whole grids).  The two pairs may differ in the last bit, so the
    solves keep ``math``.
    """

    def sinh_scaled(t, j):
        if mu == 0.0:
            return (t, 1.0, 0.0)[j]
        if j == 1:
            return cosh(mu * t)
        return sinh(mu * t) / mu if j == 0 else mu * sinh(mu * t)

    def cosh_scaled(t, j):
        if mu == 0.0:
            return (t * t / 2.0, t, 1.0)[j]
        if j == 0:
            s = sinh(mu * t / 2.0)
            return 2.0 * s * s / (mu * mu)
        return sinh_scaled(t, j - 1)

    return [
        lambda t, j: (1.0, 0.0, 0.0)[j] if j <= 2 else 0.0,
        monomial(3),
        monomial(4),
        monomial(5),
        sinh_scaled,
        cosh_scaled,
    ]


def _hermite_data(mu: float, t: float) -> np.ndarray:
    """The 6x3 array whose row ``r`` is ``(f, f', f'')`` at ``t`` of basis function ``r``.

    Raises ``ValueError`` if an entry overflows at ``mu``.
    """
    try:
        data = np.array([[f(t, j) for j in range(3)] for f in _local_basis(mu)])
    except OverflowError:  # raised by math.sinh/cosh; a float product past the range is inf
        data = np.full((6, 3), np.inf)
    if not np.isfinite(data).all():
        raise ValueError(f"local basis overflows at scaled frequency {mu}")
    return data


def _x_m_sinh(mu: float) -> float:
    """``(mu - sinh(mu))/mu^3``: series below :data:`SERIES_MU`, direct above."""
    if mu < SERIES_MU:
        total, term, k = 0.0, 1.0 / 6.0, 1
        while term > 1e-20:
            total += term
            term *= mu * mu / ((2 * k + 2) * (2 * k + 3))
            k += 1
        return -total
    return (mu - math.sinh(mu)) / mu**3


def _h0_matrix(p: int, mu: float) -> np.ndarray:
    """Constant tap of the cancellation-operator symbol at scaled frequency mu."""
    # p = 0: minus the t = 1 Hermite data of {1, sinh(mu t)/mu, (cosh(mu t) - 1)/mu^2},
    # one function per column (0.0 - x rather than -x keeps the zero entries +0.0)
    core = 0.0 - _hermite_data(mu, 1.0)[[0, 4, 5]].T
    if p == 0:
        return core
    # p = 1: Taylor row on top, the p = 0 block lower-right.
    h0 = np.zeros((4, 4))
    h0[0] = [-1.0, -1.0, core[0, 2], _x_m_sinh(mu)]
    h0[1:, 1:] = core
    return h0


def make_annihilator(spec: SpaceSpec, level: int) -> Annihilator:
    """The level-``level`` cancellation operator of ``V_{p,L}``.

    The symbol is the explicit hyperbolic-entry matrix with the frequency
    replaced by ``mu = 2^-level * lam``.  Purely polynomial specs (and
    scaled frequencies below :data:`TAYLOR_FALLBACK_MU`, where all
    entries are within roundoff of their limits) delegate to
    :func:`make_taylor`.
    """
    if spec.lam is not None and spec.p not in (0, 1):
        raise ValueError(
            f"unsupported spec: exponential cancellation operators are only "
            f"implemented for p in {{0, 1}}, got p={spec.p}"
        )
    mu = spec.frequency_at(level)
    if mu < TAYLOR_FALLBACK_MU:
        return Annihilator(level, spec, make_taylor(spec.d))
    dim = spec.dim
    symbol = MatLaurent.from_taps(dim, {-1: np.eye(dim), 0: _h0_matrix(spec.p, mu)})
    return Annihilator(level, spec, symbol)


def check_eigvec_condition(ann: Annihilator) -> float:
    """Residual of the defining constraint at ``z = e^{-+mu}``.

    The symbol evaluated at ``e^{-mu}`` must annihilate the moment vector
    ``[mu^j]_j`` and at ``e^{+mu}`` the vector ``[(-mu)^j]_j``.
    """
    if ann.spec.lam is None:
        raise ValueError("eigenvector condition requires an exponential frequency")
    mu = ann.spec.frequency_at(ann.level)
    if mu == 0.0:
        return 0.0
    d = ann.dim - 1
    res = 0.0
    for sign in (+1.0, -1.0):
        v = np.array([(sign * mu) ** j for j in range(d + 1)])
        out = ann.symbol.eval(math.exp(-sign * mu)) @ v
        res = max(res, float(np.max(np.abs(out))))
    return res


def check_two_level_identity(ann_n: Annihilator, ann_n1: Annihilator) -> float:
    """Max coefficient residual of the two-level symbol identity

    ``H[n](z^2) D^-1 = -D^-1 H[n+1](-z) H[n+1](z)`` of ``H[n] = ann_n``
    and ``H[n+1] = ann_n1``.
    """
    if ann_n1.level != ann_n.level + 1:
        raise ValueError(f"operator levels ({ann_n.level}, {ann_n1.level}) must be n, n + 1")
    d = ann_n.dim - 1
    dinv = MatLaurent.from_taps(d + 1, {0: inverse_dilation_matrix(d)})
    h_n, h_n1 = ann_n.symbol, ann_n1.symbol
    lhs = h_n.upsample().mul(dinv)
    rhs = dinv.mul(h_n1.negate_arg().mul(h_n1)).scale(-1.0)
    return max_coeff_dev(lhs, rhs)


def taylor_distance(spec: SpaceSpec, level: int) -> float:
    """Entrywise distance of the level-``level`` operator from the Taylor limit."""
    ann = make_annihilator(spec, level)
    return max_coeff_dev(ann.symbol, make_taylor(spec.d))
