"""Matrix-valued Laurent polynomial (symbol) algebra.

A symbol is a finitely supported sequence of real ``r x r`` matrices
``P_k`` identified with the Laurent polynomial ``P(z) = sum_k P_k z^k``.
Symbols are the universal algebra object of this package: masks, filter
banks, annihilators and all factorization identities live here.

Conventions
-----------
* Coefficients are double-precision reals; evaluation may be complex.
* The coefficient array over the support window is the representation
  every operation computes with.  A ``{power: matrix}`` map exists only at
  the boundary: :meth:`MatLaurent.taps` and :meth:`MatLaurent.from_taps`
  (:meth:`MatLaurent.to_json_dict` reads ``taps``).
* A tap whose max-abs entry is below :data:`TRIM_TOL` counts as zero: it
  is zeroed, and zero end taps are trimmed from the support window.  A
  tap holding a NaN is not below it, so a NaN is never trimmed away.
* Two symbols are equal when their coefficients agree entrywise within
  :data:`EQ_TOL` over the union of their windows.

All instances are immutable after construction and all operations are
pure functions, so symbols are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Max-abs threshold below which a coefficient matrix counts as zero.
TRIM_TOL = 1e-14

#: Entrywise tolerance for symbol equality.
EQ_TOL = 1e-12

#: Residual acceptance threshold of :meth:`MatLaurent.divide_right`.
DIVIDE_TOL = 1e-10


class DivisionError(ValueError):
    """Raised when a symbol is not divisible: spectral condition violated."""


@dataclass(frozen=True)
class MatLaurent:
    """A matrix Laurent polynomial with explicit support window.

    Attributes
    ----------
    dim : int
        Matrix size ``r`` (coefficients are ``r x r``).
    lo, hi : int
        Support window: coefficients are attached to powers
        ``z^lo, ..., z^hi``.
    coeffs : numpy.ndarray
        Array of shape ``(hi - lo + 1, dim, dim)``; ``coeffs[i]`` is the
        coefficient of ``z^(lo + i)``.

    The zero symbol is normalized to ``lo == hi == 0`` with a single zero
    coefficient.  For any other symbol the first and last coefficients are
    nonzero after trimming.
    """

    dim: int
    lo: int
    hi: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.hi - self.lo + 1, self.dim, self.dim):
            raise ValueError(
                f"coefficient array shape {c.shape} inconsistent with "
                f"window [{self.lo}, {self.hi}] and dim {self.dim}"
            )
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def _computed(cls, dim: int, lo: int, hi: int, coeffs: np.ndarray) -> "MatLaurent":
        """A symbol over ``coeffs``, a C-contiguous float array of the window's shape just computed.

        Neither copies nor checks, as ``HermiteSignal._computed``: nothing
        else writes to ``coeffs``, which becomes read-only.
        """
        coeffs.setflags(write=False)
        sym = object.__new__(cls)
        sym.__dict__.update(dim=dim, lo=lo, hi=hi, coeffs=coeffs)  # past the frozen __setattr__
        return sym

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @staticmethod
    def from_taps(dim: int, taps: dict[int, np.ndarray]) -> "MatLaurent":
        """Build a symbol from a ``{power: matrix}`` map (trimmed)."""
        if not taps:
            return MatLaurent.zero(dim)
        lo = min(taps)
        coeffs = np.zeros((max(taps) - lo + 1, dim, dim))
        for k, m in taps.items():
            m = np.asarray(m, dtype=float)
            if m.shape != (dim, dim):
                raise ValueError(f"tap {k} has shape {m.shape}, expected {(dim, dim)}")
            coeffs[k - lo] = m
        return _trimmed(dim, lo, coeffs)

    @staticmethod
    def zero(dim: int) -> "MatLaurent":
        """The zero symbol."""
        return MatLaurent(dim, 0, 0, np.zeros((1, dim, dim)))

    @staticmethod
    def identity(dim: int, power: int = 0) -> "MatLaurent":
        """The symbol ``z^power * I``."""
        return MatLaurent(dim, power, power, np.eye(dim)[None])

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    def tap(self, k: int) -> np.ndarray:
        """Coefficient of ``z^k`` (a zero matrix outside the window)."""
        if self.lo <= k <= self.hi:
            return self.coeffs[k - self.lo]
        return np.zeros((self.dim, self.dim))

    def taps(self) -> dict[int, np.ndarray]:
        """Nonzero coefficients as a ``{power: matrix}`` map."""
        kept = ~(np.max(np.abs(self.coeffs), axis=(1, 2)) < TRIM_TOL)  # keeps a NaN tap
        return {self.lo + int(i): self.coeffs[i] for i in np.flatnonzero(kept)}

    @property
    def is_zero(self) -> bool:
        return np.max(np.abs(self.coeffs)) < TRIM_TOL

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatLaurent):
            return NotImplemented
        if self.dim != other.dim:
            return False
        return max_coeff_dev(self, other) <= EQ_TOL

    def _window(self, lo: int, hi: int) -> np.ndarray:
        """Coefficients of ``z^lo .. z^hi`` (zero outside the support)."""
        out = np.zeros((hi - lo + 1, self.dim, self.dim))
        out[self.lo - lo : self.hi - lo + 1] = self.coeffs
        return out

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------

    def add(self, other: "MatLaurent") -> "MatLaurent":
        """Coefficientwise sum; support is the trimmed union window."""
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        lo, hi = min(self.lo, other.lo), max(self.hi, other.hi)
        return _trimmed(self.dim, lo, self._window(lo, hi) + other._window(lo, hi))

    def mul(self, other: "MatLaurent") -> "MatLaurent":
        """Cauchy product, matrix order kept: tap ``t`` sums ``P_i Q_{t-i}`` by increasing ``i``."""
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        n = len(other.coeffs)
        out = np.zeros((len(self.coeffs) + n - 1, self.dim, self.dim))
        for i, a in enumerate(self.coeffs):
            out[i : i + n] += a @ other.coeffs
        return _trimmed(self.dim, self.lo + other.lo, out)

    def scale(self, s: float) -> "MatLaurent":
        """Scalar multiple ``s * P(z)``."""
        return _trimmed(self.dim, self.lo, s * self.coeffs)

    def involution(self) -> "MatLaurent":
        """The conjugate symbol ``P#(z) = P(z^-1)^T``: taps ``k -> P_{-k}^T``."""
        return MatLaurent(self.dim, -self.hi, -self.lo, self.coeffs[::-1].transpose(0, 2, 1))

    def negate_arg(self) -> "MatLaurent":
        """The substitution ``z -> -z``: taps ``k -> (-1)^k P_k``."""
        sign = 1.0 - 2.0 * (np.arange(self.lo, self.hi + 1) % 2)
        return _trimmed(self.dim, self.lo, sign[:, None, None] * self.coeffs)

    def upsample(self) -> "MatLaurent":
        """The substitution ``z -> z^2``: tap ``k`` moves to position ``2k``."""
        out = np.zeros((2 * len(self.coeffs) - 1, self.dim, self.dim))
        out[::2] = self.coeffs
        return MatLaurent(self.dim, 2 * self.lo, 2 * self.hi, out)

    def eval(self, z: complex) -> np.ndarray:
        """Evaluate ``sum_k P_k z^k`` at a nonzero scalar ``z`` (Horner)."""
        if z == 0:
            raise ValueError("cannot evaluate a Laurent polynomial at z = 0")
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        for c in self.coeffs[::-1]:
            acc = acc * z + c
        return acc * (z ** self.lo)

    # ------------------------------------------------------------------
    # division
    # ------------------------------------------------------------------

    def divide_right(self, divisor: "MatLaurent") -> "MatLaurent":
        """Solve ``self = R * divisor`` for ``R`` by coefficient matching.

        The unknown support of ``R`` is forced by the windows:
        ``[self.lo - divisor.lo, self.hi - divisor.hi]``.  One dense
        least-squares system over all unknown taps of ``R`` is assembled
        (supports are tiny, so robustness beats speed) and the result is
        accepted only if the max coefficient residual of ``R * divisor -
        self`` is at most :data:`DIVIDE_TOL`.

        Raises
        ------
        DivisionError
            If the windows admit no quotient or the residual exceeds
            :data:`DIVIDE_TOL` ("not divisible: spectral condition violated").
        """
        return self._divide(divisor)[0]

    def _divide(self, divisor: "MatLaurent") -> tuple["MatLaurent", float]:
        """:meth:`divide_right` and its residual ``max_coeff_dev(quotient * divisor, self)``."""
        if self.dim != divisor.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {divisor.dim}")
        if divisor.is_zero:
            raise DivisionError("division by the zero symbol")
        r = self.dim
        lo_q, hi_q = self.lo - divisor.lo, self.hi - divisor.hi
        if lo_q > hi_q:
            raise DivisionError(
                "not divisible: spectral condition violated (empty quotient window)"
            )
        nq, nd = hi_q - lo_q + 1, len(divisor.coeffs)
        # The output taps t are self's window: sum_j R_j D_{t-j} = L_t, i.e.
        # transposed, L_t^T = [D_{t-j}^T]_j stacked against Y = [R_j^T]_j.
        system = np.zeros((nq + nd - 1, r, nq, r))
        for j in range(nq):
            system[j : j + nd, :, j, :] = divisor.coeffs.transpose(0, 2, 1)
        rhs = self.coeffs.transpose(0, 2, 1).reshape(-1, r)
        sol, *_ = np.linalg.lstsq(system.reshape(-1, nq * r), rhs, rcond=None)
        quotient = _trimmed(r, lo_q, sol.reshape(nq, r, r).transpose(0, 2, 1))
        residual = max_coeff_dev(quotient.mul(divisor), self)
        if not residual <= DIVIDE_TOL:  # a NaN residual fails
            raise DivisionError(
                f"not divisible: spectral condition violated (residual {residual:.3e})"
            )
        return quotient, residual

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON-ready representation ``{dim, taps: [{k, matrix}]}``."""
        return {
            "dim": self.dim,
            "taps": [
                {"k": k, "matrix": [float(x) for x in m.reshape(-1)]}
                for k, m in sorted(self.taps().items())
            ],
        }


def _trimmed(dim: int, lo: int, coeffs: np.ndarray) -> MatLaurent:
    """The normal form of the coefficients of ``z^lo, z^lo+1, ...``.

    Zeroes every tap whose max-abs entry is below :data:`TRIM_TOL`, then
    drops the zero end taps (all taps zero gives :meth:`MatLaurent.zero`).
    """
    kept = ~(np.max(np.abs(coeffs), axis=(1, 2)) < TRIM_TOL)  # a NaN tap is not below it
    idx = np.flatnonzero(kept)
    if not len(idx):
        return MatLaurent.zero(dim)
    first, last = int(idx[0]), int(idx[-1])
    if len(idx) < len(kept):
        coeffs = np.where(kept[:, None, None], coeffs, 0.0)
    # every caller passes a fresh array; a transposed one (divide_right's) is copied
    return MatLaurent._computed(dim, lo + first, lo + last, np.ascontiguousarray(coeffs[first : last + 1]))


def max_coeff_dev(P: MatLaurent, Q: MatLaurent) -> float:
    """Max-abs entrywise deviation between two symbols over the union window."""
    lo, hi = min(P.lo, Q.lo), max(P.hi, Q.hi)
    return float(np.max(np.abs(P._window(lo, hi) - Q._window(lo, hi))))


def even_part_dev(P: MatLaurent, target: np.ndarray) -> float:
    """Max coefficient residual of the identity ``P(z) + P(-z) = 2 target``.

    The left side is twice the even-power part of ``P``, so the identity
    holds for every ``z`` exactly when ``P_0 = target`` and every other
    even tap vanishes.  The residual is reported on the scale of the
    identity (twice the tap deviation): the taps are DFT coefficients of
    equispaced unit-circle samples of the left side, so it never exceeds
    the max residual over ``N`` equispaced unit-circle points (the test
    helper ``golden_data.unit_circle_points``) for ``N`` wider than the
    support.
    """
    lo = min(P.lo, 0) - min(P.lo, 0) % 2
    even = P._window(lo, max(P.hi, 0))[::2]
    even[-lo // 2] -= target
    return 2.0 * float(np.max(np.abs(even)))
