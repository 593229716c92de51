"""Biorthogonal Hermite multiwavelet filter banks and their factorizations.

For an interpolatory mask ``A`` (``A(z) + A(-z) = 2D``) the bank

    A~(z) = D^-1,   B~(z) = z D^-1 A#(-z),   B(z) = z I

satisfies the four biorthogonality identities

    P#(z) Q(z) + P#(-z) Q(-z) = 2I or 0,  P in {A~, B~}, Q in {A, B},

which guarantee perfect reconstruction of the two-channel transform.
The analysis high-pass inherits the vanishing-moment property from the
mask's exponential reproduction: exact samples of ``{1, e^{+-lam x}}``
produce zero detail coefficients.

Two factorizations through the cancellation operator are provided:

    H[n+1](z) A[n](z) = R[n](z) H[n](z^2)        (subdivision quotient)
    (B~[n])#(z)       = S[n](z) H[n+1](z)        (wavelet quotient)

both computed by coefficient-matching division, with the closed inverse-
conjugation formula for ``S`` available as a coefficient cross-check.
All identities are checked on exact coefficients, never at sample points.
The periodic transform's coarse data and details are ``HermiteSignal``s
from node 0; synthesis is periodic refinement plus the odd-node details.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .annihilator import Annihilator, SpaceSpec, inverse_dilation_matrix
from .laurent import MatLaurent, even_part_dev, max_coeff_dev
from .signal import HermiteSignal, _check_finite, sample_function
from .subdivision import LevelMask, _check_family, _lift, _refine, interpolatory_residual, make_mask

#: Residual bound for accepting a bank as biorthogonal.
BIORTHO_TOL = 1e-12


@dataclass(frozen=True)
class FilterBank:
    """The four symbols of one level of the two-channel transform.

    ``A``/``B`` are the synthesis low/high-pass, ``A_tilde``/``B_tilde``
    the analysis low/high-pass.
    """

    level: int
    spec: SpaceSpec
    A: MatLaurent
    B: MatLaurent
    A_tilde: MatLaurent
    B_tilde: MatLaurent

    @property
    def dim(self) -> int:
        return self.A.dim

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "spec": {"p": self.spec.p, "lambda": self.spec.lam},
            "A": self.A.to_json_dict(),
            "B": self.B.to_json_dict(),
            "A_tilde": self.A_tilde.to_json_dict(),
            "B_tilde": self.B_tilde.to_json_dict(),
        }


@dataclass(frozen=True)
class FactorizationPair:
    """Quotients of both cancellation-operator factorizations."""

    R: MatLaurent
    S: MatLaurent
    residual_R: float
    residual_S: float


def build(mask: LevelMask) -> FilterBank:
    """Construct the biorthogonal bank of an interpolatory mask.

    Rejects non-interpolatory masks (with the residual in the message)
    and verifies the four biorthogonality identities before returning.
    """
    res = interpolatory_residual(mask.symbol)
    if res > 1e-10:
        raise ValueError(f"mask is not interpolatory: residual {res:.3e}")
    dim, a = mask.dim, mask.symbol
    dinv = MatLaurent.from_taps(dim, {0: inverse_dilation_matrix(dim - 1)})
    b = MatLaurent.identity(dim, power=1)
    b_tilde = b.mul(dinv).mul(a.involution().negate_arg())
    fb = FilterBank(mask.level, mask.spec, a, b, dinv, b_tilde)
    res = check_biorthogonality(fb)
    if res > BIORTHO_TOL:
        raise ValueError(f"constructed bank fails biorthogonality: residual {res:.3e}")
    return fb


def build_at(spec: SpaceSpec, level: int) -> FilterBank:
    """Convenience: bank of the derived mask at ``level``."""
    return build(make_mask(spec, level))


def check_biorthogonality(fb: FilterBank) -> float:
    """Max coefficient residual of the four identities (exact for every z).

    ``P#(z) Q(z) + P#(-z) Q(-z)`` is twice the even-power part of the
    product ``P# Q``, so each identity is one product and one parity check.
    """
    eye, zero = np.eye(fb.dim), np.zeros((fb.dim, fb.dim))
    pairs = [
        (fb.A_tilde, fb.A, eye),
        (fb.A_tilde, fb.B, zero),
        (fb.B_tilde, fb.A, zero),
        (fb.B_tilde, fb.B, eye),
    ]
    return max(even_part_dev(p.involution().mul(q), target) for p, q, target in pairs)


def check_vanishing_moments(fb: FilterBank, f) -> float:
    """Max detail magnitude of the analysis high-pass on exact samples.

    ``f(x, j)`` is sampled exactly at level ``fb.level + 1`` over
    ``|x| <= 2`` and convolved with the high-pass taps on the
    stencil-complete region (no periodic wrap, which would be wrong for
    non-periodic ``f``); for ``f`` in ``V_{0,L}`` the result vanishes.
    """
    n1 = fb.level + 1
    m = max(2, math.ceil(2.0 * 2**n1))
    v = sample_function(f, n1, -m, 2 * m + 1, dim=fb.dim).data
    taps = sorted(fb.B_tilde.taps().items())
    t0 = taps[0][0]
    count = (len(v) - (taps[-1][0] - t0) - 1) // 2 + 1
    # detail k is sum_t v[2k + t - t0] @ tap(t), one strided product per tap
    acc = np.zeros((count, fb.dim))
    for t, mat in taps:
        s = t - t0
        acc += v[s : s + 2 * count : 2] @ mat
    return float(np.max(np.abs(acc)))


def compute_R(fb: FilterBank, ann_n: Annihilator, ann_n1: Annihilator) -> MatLaurent:
    """Quotient of ``H[n+1](z) A[n](z) = R[n](z) H[n](z^2)``; ``A`` is ``fb.A``."""
    if ann_n.level != fb.level or ann_n1.level != fb.level + 1:
        raise ValueError(
            f"operator levels ({ann_n.level}, {ann_n1.level}) must bracket "
            f"bank level {fb.level}"
        )
    return ann_n1.symbol.mul(fb.A).divide_right(ann_n.symbol.upsample())


def compute_S(
    fb: FilterBank, ann_n1: Annihilator, cross_check_R: MatLaurent | None = None
) -> MatLaurent:
    """Quotient of ``(B~[n])#(z) = S[n](z) H[n+1](z)``.

    Obtained by coefficient matching.  When ``cross_check_R`` is given,
    the closed inverse-conjugation formula ``S(z) = -z^-1 H[n+1](-z)^-1
    R[n](-z) D^-1 H[n+1](-z)`` is checked in its polynomial form
    ``-z H[n+1](-z) S(z) = R[n](-z) D^-1 H[n+1](-z)``.
    """
    if ann_n1.level != fb.level + 1:
        raise ValueError(
            f"operator level {ann_n1.level} must be bank level {fb.level} + 1"
        )
    s = fb.B_tilde.involution().divide_right(ann_n1.symbol)
    if cross_check_R is not None:
        h_neg = ann_n1.symbol.negate_arg()
        lhs = MatLaurent.identity(fb.dim, power=1).mul(h_neg).mul(s).scale(-1.0)
        res = max_coeff_dev(lhs, cross_check_R.negate_arg().mul(fb.A_tilde).mul(h_neg))
        if res > 1e-8:
            raise ValueError(
                f"wavelet quotient disagrees with the closed formula: {res:.3e}"
            )
    return s


def factorization_pair(fb: FilterBank, ann_n: Annihilator, ann_n1: Annihilator) -> FactorizationPair:
    """Both quotients of the bank ``fb`` with their factorization residuals."""
    r = compute_R(fb, ann_n, ann_n1)
    s = compute_S(fb, ann_n1, cross_check_R=r)
    res_r = max_coeff_dev(ann_n1.symbol.mul(fb.A), r.mul(ann_n.symbol.upsample()))
    res_s = max_coeff_dev(fb.B_tilde.involution(), s.mul(ann_n1.symbol))
    return FactorizationPair(r, s, res_r, res_s)


# ----------------------------------------------------------------------
# multilevel transform (periodic)
# ----------------------------------------------------------------------

def _check_signals(spec: SpaceSpec, *signals: HermiteSignal) -> None:
    """The spec is in the mask family; every signal starts at node 0 with the space's dim."""
    _check_family(spec)
    for s in signals:
        if s.start != 0:
            raise ValueError(f"transform data starts at node 0, got {s.start} at level {s.level}")
        if s.dim != spec.dim:
            raise ValueError(f"signal dim {s.dim} does not match the space's dim {spec.dim}")


def analyze(
    spec: SpaceSpec, signal: HermiteSignal, levels: int
) -> tuple[HermiteSignal, list[HermiteSignal]]:
    """Depth-``levels`` periodic analysis of a signal that starts at node 0.

    The step from level ``n - l + 1`` down to ``n - l`` uses the bank of
    mask level ``n - l``.  The low-pass is ``c[n-1]_k = D^-1 c[n]_{2k}``;
    details are stored downsampled (``d_hat_k = d_{2k+1}``; even-index
    fine details vanish identically for interpolatory banks).  Returns
    the coarse signal and the details ordered finest first, as read-only
    arrays that share no memory with ``signal``; a result that overflows
    raises ``ValueError``.
    """
    _check_signals(spec, signal)
    if levels < 0:
        raise ValueError(f"transform depth must be >= 0, got {levels}")
    n = signal.level
    if n - levels < 0:
        raise ValueError(f"level underflow: entry level {n} with {levels} steps")
    if len(signal) % (2**levels) != 0:
        raise ValueError(
            f"signal length {len(signal)} not divisible by 2^{levels} = {2**levels}"
        )
    c = signal.data
    details: list[HermiteSignal] = []
    with np.errstate(over="ignore", invalid="ignore"):  # _check_finite names an overflow
        for step in range(1, levels + 1):
            shape = (len(c) // 2, spec.dim)
            fine, c, d = c, np.empty(shape), np.empty(shape)
            _lift(make_mask(spec, n - step), c, fine, d, analysis=True)
            _check_finite(n - step, d)
            details.append(HermiteSignal._computed(n - step, d))
    _check_finite(n - levels, c)
    return HermiteSignal._computed(n - levels, c), details


def synthesize(
    spec: SpaceSpec, coarse: HermiteSignal, details: list[HermiteSignal]
) -> HermiteSignal:
    """Exact inverse of :func:`analyze` (details ordered finest first)."""
    _check_signals(spec, coarse, *details)
    for step, det in enumerate(reversed(details)):
        level, nodes = coarse.level + step, len(coarse) << step
        if (det.level, len(det)) != (level, nodes):
            raise ValueError(f"detail level {det.level}, {len(det)} rows: expected {level}, {nodes} rows")
    return _refine_levels(spec, coarse.level, coarse.data, [det.data for det in details])


def _refine_levels(spec: SpaceSpec, level: int, c: np.ndarray, details: list[np.ndarray]) -> HermiteSignal:
    """The synthesis loop on checked arrays: refine ``c`` from ``level`` by each detail array.

    The result is checked once for an overflow; it shares no memory with
    ``details``, nor with ``c`` unless there are no details.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # _check_finite names an overflow
        for d in reversed(details):
            c = _refine(make_mask(spec, level), c, d)
            level += 1
    _check_finite(level, c)
    return HermiteSignal._computed(level, c)


@dataclass(frozen=True)
class CompressionReport:
    """Outcome of threshold compression of the detail coefficients."""

    total_details: int
    kept_details: int
    dropped_fraction: float
    max_abs_error: float
    max_relative_error: float
    reconstruction: HermiteSignal = field(repr=False)


def compress(
    spec: SpaceSpec, signal: HermiteSignal, levels: int, threshold: float
) -> CompressionReport:
    """Analyze, zero detail vectors below ``threshold`` (max-norm), synthesize."""
    if not threshold >= 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    coarse, details = analyze(spec, signal, levels)
    # column by column: an axis-1 max would loop over rows of dim entries
    keeps = [functools.reduce(np.maximum, np.abs(det.data).T) > threshold for det in details]
    pruned = [np.where(keep[:, None], det.data, 0.0) for keep, det in zip(keeps, details)]
    rec = _refine_levels(spec, coarse.level, coarse.data, pruned)
    total, kept = sum(map(len, keeps)), int(sum(map(np.count_nonzero, keeps)))
    err = float(np.max(np.abs(rec.data - signal.data)))
    scale = float(np.max(np.abs(signal.data)))
    return CompressionReport(
        total_details=total,
        kept_details=kept,
        dropped_fraction=1.0 - kept / total if total else 0.0,
        max_abs_error=err,
        max_relative_error=err / scale if scale > 0 else err,
        reconstruction=rec,
    )


# ----------------------------------------------------------------------
# transform coefficient file format
# ----------------------------------------------------------------------

def transform_to_json_dict(
    spec: SpaceSpec, entry_level: int, coarse: HermiteSignal, details: list[HermiteSignal]
) -> dict:
    """JSON container ``{spec, entry_level, L, coarse, details}``."""
    return {
        "spec": {"p": spec.p, "lambda": spec.lam},
        "entry_level": entry_level,
        "L": len(details),
        "coarse": coarse.data.tolist(),
        "details": [det.data.tolist() for det in details],
    }


def _finite_block(block, name: str) -> np.ndarray:
    """A coefficient block as floats; ``json`` parses ``NaN`` and ``Infinity``."""
    data = np.asarray(block, dtype=float)
    if not np.isfinite(data).all():
        raise ValueError(f"coefficient file: non-finite value in the {name} block")
    return data


def transform_from_json_dict(d: dict) -> tuple[SpaceSpec, int, HermiteSignal, list[HermiteSignal]]:
    """Inverse of :func:`transform_to_json_dict`; every coefficient must be finite."""
    spec = SpaceSpec(int(d["spec"]["p"]), d["spec"]["lambda"])
    entry = int(d["entry_level"])
    levels = int(d["L"])
    coarse = HermiteSignal(entry - levels, _finite_block(d["coarse"], "coarse"))
    details = [
        HermiteSignal(entry - step, _finite_block(block, f"details[{step - 1}] (level {entry - step})"))
        for step, block in enumerate(d["details"], start=1)
    ]
    return spec, entry, coarse, details
