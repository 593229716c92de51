"""Level-dependent interpolatory Hermite subdivision (order d = 2).

The family refines Hermite data (value, first and second derivative) by
inserting midpoint vectors obtained from a local two-point Hermite
interpolation problem, solved in the six-dimensional space

    W_mu = span{1, x^3, x^4, x^5, e^{mu x}, e^{-mu x}},  mu = 2^-n lam,

over each unit interval at level ``n``.  The polynomial part ``span{x^3,
x^4, x^5}`` is exactly the subspace of ``W_mu`` with a triple zero at the
origin, which makes the backward mask tap ``A_-1`` a frequency-free
constant; the exponential pair makes the scheme reproduce ``{1, e^{+-lam
x}}`` across levels (the V_{0,L}-spectral condition).  As ``mu -> 0``
the space tends to the full quintics and the masks to the stationary
quintic Hermite scheme.  The mask and the closed-form pieces are solved
from the Hermite data of ``W_mu`` that ``annihilator._hermite_data`` gives.

All signals are in v-coordinates (see :mod:`hermwave.signal`), in which
one subdivision step is plain stencil application: even outputs are
``D @ input`` (exact, since ``D`` is a power-of-two diagonal) and odd
outputs come from the two neighbor taps (periodic synthesis adds its
details to the latter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .annihilator import SpaceSpec, _hermite_data, _local_basis, dilation_matrix, inverse_dilation_matrix
from .laurent import MatLaurent, even_part_dev
from .signal import HermiteSignal, exponential, monomial, sample_function

#: The constant backward tap shared by every level and frequency.
A_MINUS_1 = np.array(
    [[32.0, -10.0, 1.0], [60.0, -14.0, 1.0], [0.0, 24.0, -4.0]]
) / 64.0

#: Condition-number bound above which mask derivation reports failure.
COND_LIMIT = 1e12

#: Coarse rows per block of the lifting kernel (192 KiB per 3-column operand).
_BLOCK = 8192

#: ``(D^-1)^T`` of the three-component masks, the analysis low-pass.  A
#: matmul, not an elementwise scaling: it turns ``-0.0`` into ``+0.0``.
_DINV_T = inverse_dilation_matrix(2).T


@dataclass(frozen=True)
class LevelMask:
    """The level-``n`` subdivision mask, support ``{-1, 0, 1}``.

    Invariants: interpolatory (``tap(0) == D``, no other even taps) and
    ``tap(-1)`` equal to the constant :data:`A_MINUS_1` at every level.
    """

    level: int
    spec: SpaceSpec
    symbol: MatLaurent

    def tap(self, k: int) -> np.ndarray:
        return self.symbol.tap(k)

    @property
    def dim(self) -> int:
        return self.symbol.dim


@dataclass(frozen=True)
class LimitFunctionTable:
    """Dyadic samples of the basic limit matrix ``F``.

    ``values[t, i, j]`` is the ``i``-th derivative of component ``phi_j``
    at ``grid[t]``; the first row of ``F`` is the multi-scaling vector.
    """

    depth: int
    grid: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def component(self, j: int, derivative: int = 0) -> np.ndarray:
        return self.values[:, derivative, j]


def make_mask(spec: SpaceSpec, level: int) -> LevelMask:
    """Derive the level-``level`` mask from midpoint Hermite interpolation.

    Solves, rowwise, the 6x6 linear system expressing

        A_1 g(0) + A_-1 g(1) = D g(1/2)

    for the Hermite data vectors ``g = (f, f', f'')`` of all six local
    basis functions ``f``, then assembles taps ``{-1, 0, 1}`` with
    ``tap(0) = D``.

    Raises
    ------
    ValueError
        If the level is negative, the spec is outside the implemented
        family or the interpolation system is ill conditioned.
    AssertionError
        If the solved backward tap misses :data:`A_MINUS_1`.
    """
    _check_family(spec)
    _check_level(level)
    return LevelMask(level, spec, _mask_symbol(spec.frequency_at(level)))


def _check_family(spec: SpaceSpec) -> None:
    if spec.p != 0 or spec.lam is None:
        raise ValueError(
            "mask derivation implements the (p=0, one frequency pair) family; "
            f"got p={spec.p}, lambda={spec.lam}"
        )


def _check_level(level: int) -> None:
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")


@lru_cache(maxsize=256)
def _mask_symbol(mu: float) -> MatLaurent:
    """The mask symbol at scaled frequency ``mu``, solved and assembled once.

    Every level and spec with the same ``mu`` shares the returned symbol;
    its coefficients (and so its ``tap`` views) are read-only.  A failed
    solve raises and is not cached.
    """
    d = dilation_matrix(2)
    # row r: the Hermite data of basis function r at 0 and 1, and D times it at 1/2
    m = np.hstack((_hermite_data(mu, 0.0), _hermite_data(mu, 1.0)))
    rhs = _hermite_data(mu, 0.5) @ d.T
    if np.linalg.cond(m) > COND_LIMIT:
        raise ValueError(
            f"interpolation system ill conditioned at scaled frequency {mu}"
        )
    sol = np.linalg.solve(m, rhs)
    a1, am1 = sol[:3].T, sol[3:].T
    if np.max(np.abs(am1 - A_MINUS_1)) > 1e-11:
        raise AssertionError("derived mask violates the constant backward tap")
    return MatLaurent.from_taps(3, {-1: am1, 0: d, 1: a1})


def interpolatory_residual(symbol: MatLaurent) -> float:
    """Max coefficient residual of ``A(z) + A(-z) = 2D`` (exact for every z)."""
    return even_part_dev(symbol, dilation_matrix(symbol.dim - 1))


# ----------------------------------------------------------------------
# subdivision operator
# ----------------------------------------------------------------------

def subdivide(mask: LevelMask, signal: HermiteSignal) -> HermiteSignal:
    """One refinement step: ``output_j = sum_k A_{j-2k} input_k``.

    Input nodes ``start .. start+N-1`` (zero extension outside); output
    nodes ``2*start-1 .. 2*(start+N-1)+1`` at level ``n+1``.  Even
    outputs are ``D @ input`` exactly (raw Hermite data is copied; the
    ``D`` factor is the v-coordinate reweighting, exact in binary
    floating point).
    """
    if signal.level != mask.level:
        raise ValueError(f"level mismatch: signal {signal.level} vs mask {mask.level}")
    if signal.dim != mask.dim:
        raise ValueError(f"dimension mismatch: signal {signal.dim} vs mask {mask.dim}")
    # odd output 2(start+m)-1 = A_1 c_{m-1} + A_-1 c_m: periodic refinement of
    # [0, c] with its first row (D 0) dropped; the zero row extends both ends
    out = _refine(mask, np.concatenate((np.zeros((1, mask.dim)), signal.data)))[1:]
    return HermiteSignal(signal.level + 1, out, 2 * signal.start - 1)


def subdivide_periodic(mask: LevelMask, signal: HermiteSignal) -> HermiteSignal:
    """One refinement step with periodic extension (length doubles)."""
    if signal.level != mask.level:
        raise ValueError(f"level mismatch: signal {signal.level} vs mask {mask.level}")
    return HermiteSignal(signal.level + 1, _refine(mask, signal.data), 2 * signal.start)


def _refine(mask: LevelMask, c: np.ndarray, details: np.ndarray | None = None) -> np.ndarray:
    """Periodic refinement of the rows ``c``: ``D c_k`` at even rows, predictions at odd rows.

    Synthesis passes the ``details`` it adds to the predictions.
    """
    out = np.empty((2 * len(c), mask.dim))
    _lift(mask, c, out, details, analysis=False)
    return out


def _lift(mask: LevelMask, coarse: np.ndarray, fine: np.ndarray, details, analysis: bool) -> None:
    """One periodic lifting level between ``N`` coarse and ``2N`` fine rows, in place.

    With the prediction ``p_k = A_1 c_k + A_-1 c_{k+1}`` (periodic wrap),
    analysis writes ``coarse = D^-1 fine_even`` and ``details = fine_odd -
    p``; synthesis writes ``fine_even = D coarse`` and ``fine_odd = p +
    details`` (``None`` for plain subdivision).  It runs in blocks of
    ``_BLOCK`` coarse rows, whose temporaries stay in cache, with the bits
    of the whole-level formula; the last block takes the remainder, as a
    one-row product takes another BLAS path with other last bits.
    """
    n = len(coarse)
    t1, tm1 = mask.tap(1).T, mask.tap(-1).T
    for a in range(0, n, _BLOCK):
        last = a + 2 * _BLOCK > n
        if a == 0 and last:  # one block: the arrays themselves, so small signals slice nothing
            c, f, d = coarse, fine, details
        else:
            # coarse rows a..b, fine rows 2a..2b: the next block writes row b again, same bits
            b = n if last else a + _BLOCK
            c, f = coarse[a : b + 1], fine[2 * a : 2 * b + 1]
            d = None if details is None else details[a:b]
        if analysis:
            np.matmul(f[0::2], _DINV_T, out=c)
        else:
            np.matmul(c, mask.tap(0).T, out=f[0::2])
        # the wrapped operand enters one whole product: a wrap row computed
        # on its own can differ in the last bit
        cur, nxt = (c, np.concatenate((c[1:], coarse[:1]))) if last else (c[:-1], c[1:])
        odd = cur @ t1
        odd += nxt @ tm1
        if analysis:
            np.subtract(f[1::2], odd, out=d)
        else:
            if d is not None:
                odd += d  # on the contiguous prediction: a strided add to fine is much slower
            f[1::2] = odd
        if last:
            break


def check_spectral_condition(
    spec: SpaceSpec,
    level: int,
    depth: int,
    functions: dict | None = None,
    halfwidth: float = 3.0,
) -> dict[str, float]:
    """Deviation of iterated subdivision from exact v-samples.

    For each named function, exact samples over ``|x| <= halfwidth`` at
    ``level`` are refined ``depth`` times and compared with exact samples
    at ``level + depth`` on the region unaffected by the finite window.
    Returns ``{name: max deviation}``.
    """
    _check_level(level)
    if functions is None:
        lam = spec.lam if spec.lam else 1.0
        functions = {
            "1": monomial(0),
            "x": monomial(1),
            "x^2": monomial(2),
            "x^3": monomial(3),
            "exp(+)": exponential(lam),
            "exp(-)": exponential(-lam),
        }
    m = max(2, math.ceil(halfwidth * 2**level))
    masks = [make_mask(spec, level + step) for step in range(depth)]
    # dependency cone: nodes within 2^depth - 1 of the window edge are
    # contaminated by the zero extension
    edge = 2 * (2**depth - 1)
    report = {}
    for name, f in functions.items():
        sig = sample_function(f, level, -m, 2 * m + 1, dim=3)
        for mask in masks:
            sig = subdivide(mask, sig)
        valid = sig.data[edge : len(sig) - edge]
        exact = sample_function(f, sig.level, sig.start + edge, len(valid), dim=3)
        report[name] = float(np.max(np.abs(valid - exact.data)))
    return report


# ----------------------------------------------------------------------
# basic limit functions
# ----------------------------------------------------------------------

def render_basic_limit(
    spec: SpaceSpec, depth: int, base_level: int = 0
) -> LimitFunctionTable:
    """Cascade rendering of the basic limit matrix ``F`` at ``base_level``.

    Starts from delta data at level ``base_level`` and subdivides
    ``depth`` times with the level-dependent masks; interpolation makes
    the dyadic samples exact, so row ``i`` of ``F`` at ``x = 2^-depth k``
    is ``2^{depth * i}`` times component ``i`` of the refined data.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    masks = [make_mask(spec, base_level + step) for step in range(depth)]
    tables = []
    for j in range(3):
        data = np.zeros((5, 3))
        data[2, j] = 1.0
        sig = HermiteSignal(base_level, data, start=-2)
        for mask in masks:
            sig = subdivide(mask, sig)
        tables.append(sig)
    nodes = tables[0].nodes()
    keep = np.abs(nodes) <= 2**depth
    grid = nodes[keep] * 2.0**-depth
    scale = np.array([2.0 ** (depth * i) for i in range(3)])
    values = np.stack([sig.data[keep] * scale for sig in tables], axis=2)
    return LimitFunctionTable(depth, grid, values)


@lru_cache(maxsize=64)
def _piece_coeffs(mu: float, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Local-space coefficients of the two pieces of ``phi_j``.

    Right piece on [0, 1]: the unique element of the six-dimensional
    local space with Hermite data ``e_j`` at 0 and zero data at 1.  Left
    piece on [-1, 0]: the unique combination of ``(x+1)^{3,4,5}`` (the
    triple-zero subspace, frequency-free) with data ``e_j`` at 0.
    """
    # the transposed mask system: column c is basis function c's data at 0 and 1
    h1 = _hermite_data(mu, 1.0)
    m = np.hstack((_hermite_data(mu, 0.0), h1)).T
    right = np.linalg.solve(m, np.eye(6)[j])
    # x^3, x^4, x^5 are basis functions 1..3
    left = np.linalg.solve(h1[1:4].T, np.eye(3)[j])
    right.setflags(write=False)
    left.setflags(write=False)
    return left, right


def closed_form_phi(spec: SpaceSpec, j: int, x, level: int = 0, derivative: int = 0):
    """Closed-form evaluation of component ``phi_j`` at ``x``.

    The two polynomial/hyperbolic pieces are the solutions of the local
    Hermite problems that define the scheme (level ``level`` via the
    substitution ``lam -> 2^-level lam``).  The value is exactly 0 for
    ``|x| >= 1``: compact support, and the Hermite end data at ``+-1``
    are zero.  ``x`` is a float (the result is a float) or an array (the
    result is an array of its shape).

    Note: these closed forms satisfy the Hermite end conditions exactly
    but are *not* exactly refinable, so they agree with the cascade limit
    only to about 1e-5 at lam = 2 (see the rendering comparison tools).
    """
    if j not in (0, 1, 2):
        raise ValueError("component must be one of 0, 1, 2")
    if derivative not in (0, 1, 2):
        raise ValueError("derivative must be one of 0, 1, 2")
    mu = spec.frequency_at(level)
    left, right = _piece_coeffs(mu, j)
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    pieces = (
        ((x >= 0.0) & (x < 1.0), 0.0, right, _local_basis(mu, np.sinh, np.cosh)),
        ((x > -1.0) & (x < 0.0), 1.0, left, [monomial(q) for q in (3, 4, 5)]),
    )
    for inside, shift, coeffs, basis in pieces:
        t = x[inside] + shift
        out[inside] = sum(c * f(t, derivative) for c, f in zip(coeffs, basis))
    return float(out) if out.ndim == 0 else out


def closed_form_deviation(
    spec: SpaceSpec, table: LimitFunctionTable, base_level: int = 0
) -> dict[int, float]:
    """Max grid deviation of a rendered ``table`` from the closed forms, per component.

    ``table`` is :func:`render_basic_limit` of ``spec`` at ``base_level``.
    """
    return {
        j: float(np.max(np.abs(table.component(j) - closed_form_phi(spec, j, table.grid, base_level))))
        for j in range(3)
    }


def compare_cascade_closed_form(
    spec: SpaceSpec, depth: int = 7, base_level: int = 0
) -> dict[int, float]:
    """Max grid deviation between cascade and closed forms, per component."""
    return closed_form_deviation(spec, render_basic_limit(spec, depth, base_level), base_level)
