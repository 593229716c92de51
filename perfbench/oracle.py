"""Independent checks of the program's outputs.

Nothing here calls the package under test.  The reference values are
computed from the method's definitions: exact rational stationary taps,
the even-part form of the biorthogonality identities, the interpolation
property of the limit functions and the reproduction of the space
``{1, e^{+lam x}, e^{-lam x}}``.  Each check raises :class:`CheckError`
naming what differs.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from inputs import space_basis


class CheckError(AssertionError):
    """An output of the program disagrees with the independent reference."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ----------------------------------------------------------------------
# rational stationary taps
# ----------------------------------------------------------------------

#: The frequency-free backward tap, as stated by the method.
A_MINUS_1_EXACT = [
    [Fraction(n, 64) for n in row] for row in ((32, -10, 1), (60, -14, 1), (0, 24, -4))
]

#: ``D = diag(1, 1/2, 1/4)``.
D = np.diag([1.0, 0.5, 0.25])


def _hermite_data(q: int, t: Fraction) -> list[Fraction]:
    """``(f, f', f'')`` of ``t^q`` at ``t``."""
    return [math.perm(q, j) * t ** (q - j) if j <= q else Fraction(0) for j in range(3)]


def _solve_exact(m: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gauss-Jordan elimination over the rationals."""
    n = len(m)
    a = [row[:] + [r] for row, r in zip(m, rhs)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] / a[r][r] for r in range(n)]


def stationary_taps() -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Exact ``(A_1, A_-1)`` of the stationary (``lam = 0``) mask.

    They solve ``A_1 g(0) + A_-1 g(1) = D g(1/2)`` for the Hermite data
    ``g = (f, f', f'')`` of every quintic ``f`` on ``[0, 1]``.
    """
    half = [Fraction(1), Fraction(1, 2), Fraction(1, 4)]
    system = [_hermite_data(q, Fraction(0)) + _hermite_data(q, Fraction(1)) for q in range(6)]
    a1, am1 = [], []
    for i in range(3):
        rhs = [half[i] * _hermite_data(q, Fraction(1, 2))[i] for q in range(6)]
        row = _solve_exact(system, rhs)
        a1.append(row[:3])
        am1.append(row[3:])
    return a1, am1


def stationary_taps_float() -> tuple[np.ndarray, np.ndarray]:
    a1, am1 = stationary_taps()
    if am1 != A_MINUS_1_EXACT:
        raise CheckError(f"rational backward tap {am1} differs from the stated constant")
    return np.array(a1, dtype=float), np.array(am1, dtype=float)


# ----------------------------------------------------------------------
# transform outputs
# ----------------------------------------------------------------------

def check_roundtrip(rec: np.ndarray, inp: np.ndarray, rtol: float = 1e-10) -> None:
    """``rec`` equals ``inp`` within ``rtol`` of the input's max-abs."""
    _require(rec.shape == inp.shape, f"shape {rec.shape} != input shape {inp.shape}")
    err = float(np.max(np.abs(rec - inp)))
    scale = float(np.max(np.abs(inp)))
    _require(err <= rtol * scale, f"round-trip error {err:.3e} > {rtol:g} x {scale:.3e}")


def check_coarse(coarse: np.ndarray, inp: np.ndarray, levels: int) -> None:
    """Coarse coefficients are bit-exactly ``diag(1, 2, 4)^L inp[::2^L]``."""
    expect = inp[:: 2**levels] * np.array([1.0, 2.0**levels, 4.0**levels])
    _require(coarse.shape == expect.shape, f"coarse shape {coarse.shape} != {expect.shape}")
    bad = np.argwhere(coarse != expect)
    _require(not len(bad), f"coarse differs from D^-L input[::2^L] at {bad[:3].tolist()}")


def check_space_details(details: list[np.ndarray], inp: np.ndarray, rtol: float = 1e-9) -> None:
    """Details of a space element vanish except the periodic-wrap entry.

    At each level the last detail is predicted across the wrap from
    ``x -> 1`` to ``x = 0``, where the periodic extension of a
    non-periodic space element jumps; it must stand out, and every other
    detail must vanish within ``rtol`` of that level's input scale.
    """
    c = inp
    for step, d in enumerate(details, start=1):
        scale = float(np.max(np.abs(c)))
        mags = np.max(np.abs(d), axis=1)
        inner = float(np.max(mags[:-1])) if len(mags) > 1 else 0.0
        _require(inner <= rtol * scale,
                 f"level step {step}: interior detail {inner:.3e} > {rtol:g} x {scale:.3e}")
        _require(mags[-1] > 1e3 * rtol * scale,
                 f"level step {step}: wrap detail {mags[-1]:.3e} does not stand out")
        c = c[0::2] * np.array([1.0, 2.0, 4.0])


def predicted_details(inp: np.ndarray, levels: int, a1: np.ndarray, am1: np.ndarray) -> list[np.ndarray]:
    """Periodic details of the stationary predictor with taps ``A_1, A_-1``."""
    out, c = [], inp
    for _ in range(levels):
        coarse = c[0::2] * np.array([1.0, 2.0, 4.0])
        right = np.concatenate((coarse[1:], coarse[:1]))
        out.append(c[1::2] - (coarse @ a1.T + right @ am1.T))
        c = coarse
    return out


def check_stationary_details(details: list[np.ndarray], inp: np.ndarray, rtol: float = 1e-12) -> None:
    """At ``lam = 0`` the details match the rational stationary predictor."""
    a1, am1 = stationary_taps_float()
    ref = predicted_details(inp, len(details), a1, am1)
    c = inp
    for step, (d, r) in enumerate(zip(details, ref), start=1):
        _require(d.shape == r.shape, f"level step {step}: shape {d.shape} != {r.shape}")
        scale = float(np.max(np.abs(c)))
        dev = float(np.max(np.abs(d - r)))
        _require(dev <= rtol * scale,
                 f"level step {step}: details deviate from the stationary predictor by {dev:.3e}")
        c = c[0::2] * np.array([1.0, 2.0, 4.0])


def count_above(details: list[np.ndarray], threshold: float) -> int:
    """Detail vectors whose max-abs entry exceeds ``threshold``."""
    return int(sum(int(np.count_nonzero(np.max(np.abs(d), axis=1) > threshold)) for d in details))


# ----------------------------------------------------------------------
# filter banks, in the coefficient domain
# ----------------------------------------------------------------------

Symbol = dict[int, np.ndarray]


def symbol_from_json(d: dict) -> Symbol:
    dim = int(d["dim"])
    return {int(t["k"]): np.asarray(t["matrix"], dtype=float).reshape(dim, dim) for t in d["taps"]}


def _mul(p: Symbol, q: Symbol) -> tuple[Symbol, Symbol]:
    """Product ``P Q`` and, per power, the sum of ``|P_i| |Q_j|`` (a rounding scale)."""
    out: Symbol = {}
    mag: Symbol = {}
    for i, a in p.items():
        for j, b in q.items():
            out[i + j] = out.get(i + j, 0.0) + a @ b
            mag[i + j] = mag.get(i + j, 0.0) + np.abs(a) @ np.abs(b)
    return out, mag


def _conj(p: Symbol) -> Symbol:
    """``P#(z) = P(1/z)^T``."""
    return {-k: m.T for k, m in p.items()}


def check_bank(bank: dict, ulps: float = 64.0) -> None:
    """The four biorthogonality identities, exactly in the coefficient domain.

    ``P#(z) Q(z) + P#(-z) Q(-z)`` is twice the even-power part of
    ``P# Q``, so each identity says that part is ``I`` (``P, Q`` =
    ``A~, A`` and ``B~, B``) or ``0``.  Every coefficient of that part
    must match within ``ulps`` rounding units of its own product terms.
    Also checks the mask: support ``{-1, 0, 1}``, ``tap(0) = D`` and
    ``tap(-1) = A_-1``.
    """
    sym = {name: symbol_from_json(bank[name]) for name in ("A", "B", "A_tilde", "B_tilde")}
    eye = np.eye(3)
    for p, q, target in (
        ("A_tilde", "A", eye),
        ("A_tilde", "B", 0.0 * eye),
        ("B_tilde", "A", 0.0 * eye),
        ("B_tilde", "B", eye),
    ):
        prod, mag = _mul(_conj(sym[p]), sym[q])
        for k in sorted(prod):
            if k % 2:
                continue
            want = target if k == 0 else 0.0 * eye
            res = np.abs(prod[k] - want)
            tol = ulps * np.finfo(float).eps * (mag[k] + np.abs(want))
            _require(bool(np.all(res <= tol)),
                     f"even part of {p}# {q} at z^{k} off by {float(np.max(res)):.3e}")
    mask = symbol_from_json(bank["mask"])
    _require(sorted(mask) == [-1, 0, 1], f"mask support {sorted(mask)} != [-1, 0, 1]")
    _require(bool(np.array_equal(mask[0], D)), "mask tap(0) != D")
    dev = float(np.max(np.abs(mask[-1] - np.array(A_MINUS_1_EXACT, dtype=float))))
    _require(dev <= 1e-12, f"mask tap(-1) deviates from A_-1 by {dev:.3e}")


# ----------------------------------------------------------------------
# limit functions
# ----------------------------------------------------------------------

def check_render(table: np.ndarray, depth: int, lam: float, rtol: float = 1e-9) -> None:
    """Check a rendered ``x, phi0, phi1, phi2`` table at base level 0.

    ``phi(0) = (1, 0, 0)`` and ``phi(+-1) = 0`` exactly (first row of
    ``F(0) = I`` and ``F(+-1) = 0``), and on ``[0, 1]`` the expansion
    ``g(x) = phi(x) . g(0) + phi(x - 1) . g(1)`` reproduces every space
    function ``g`` from its Hermite data, within ``rtol`` of ``max |g|``.
    """
    h = 2**depth
    _require(table.shape == (2 * h + 1, 4), f"table shape {table.shape} != {(2 * h + 1, 4)}")
    x = table[:, 0]
    _require(bool(np.array_equal(x, np.arange(-h, h + 1) / h)), "grid is not 2^-depth k on [-1, 1]")
    phi = table[:, 1:]
    _require(bool(np.array_equal(phi[h], [1.0, 0.0, 0.0])), f"phi(0) = {phi[h].tolist()}")
    _require(not np.any(phi[[0, -1]]), "phi(+-1) != 0")
    right, left = phi[h:], phi[: h + 1]  # phi(x) and phi(x - 1) for x in [0, 1]
    xs = x[h:]
    for name, g in space_basis(lam).items():
        ends = g(np.array([0.0, 1.0]))  # Hermite data at 0 and 1
        exact = g(xs)[0]
        err = float(np.max(np.abs(right @ ends[:, 0] + left @ ends[:, 1] - exact)) / np.max(np.abs(exact)))
        _require(err <= rtol, f"rendered functions reproduce {name} only to {err:.3e}")
