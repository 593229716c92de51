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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .annihilator import Annihilator, SpaceSpec, inverse_dilation_matrix
from .laurent import MatLaurent, even_part_dev, max_coeff_dev
from .signal import DetailSignal, HermiteSignal, sample_function
from .subdivision import LevelMask, _predict, interpolatory_residual, make_mask

#: Residual bound for accepting a bank as biorthogonal.
BIORTHO_TOL = 1e-12

#: ``(D^-1)^T`` of the three-component masks, the analysis low-pass.  A
#: matmul, not an elementwise scaling: it turns ``-0.0`` into ``+0.0``.
_DINV_T = inverse_dilation_matrix(2).T


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


def check_vanishing_moments(fb: FilterBank, f, halfwidth: float = 2.0) -> float:
    """Max detail magnitude of the analysis high-pass on exact samples.

    ``f(x, j)`` is sampled exactly at level ``fb.level + 1`` over
    ``|x| <= halfwidth`` and convolved with the high-pass taps on the
    stencil-complete region (no periodic wrap, which would be wrong for
    non-periodic ``f``); for ``f`` in ``V_{0,L}`` the result vanishes.
    """
    n1 = fb.level + 1
    m = max(2, math.ceil(halfwidth * 2**n1))
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


def compute_R(
    fb: FilterBank, ann_n: Annihilator, ann_n1: Annihilator, tol: float = 1e-10
) -> MatLaurent:
    """Quotient of ``H[n+1](z) A[n](z) = R[n](z) H[n](z^2)``; ``A`` is ``fb.A``."""
    if ann_n.level != fb.level or ann_n1.level != fb.level + 1:
        raise ValueError(
            f"operator levels ({ann_n.level}, {ann_n1.level}) must bracket "
            f"bank level {fb.level}"
        )
    return ann_n1.symbol.mul(fb.A).divide_right(ann_n.symbol.upsample(), tol=tol)


def compute_S(
    fb: FilterBank,
    ann_n1: Annihilator,
    tol: float = 1e-10,
    cross_check_R: MatLaurent | None = None,
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
    s = fb.B_tilde.involution().divide_right(ann_n1.symbol, tol=tol)
    if cross_check_R is not None:
        h_neg = ann_n1.symbol.negate_arg()
        lhs = MatLaurent.identity(fb.dim, power=1).mul(h_neg).mul(s).scale(-1.0)
        res = max_coeff_dev(lhs, cross_check_R.negate_arg().mul(fb.A_tilde).mul(h_neg))
        if res > 1e-8:
            raise ValueError(
                f"wavelet quotient disagrees with the closed formula: {res:.3e}"
            )
    return s


def factorization_pair(
    fb: FilterBank, ann_n: Annihilator, ann_n1: Annihilator
) -> FactorizationPair:
    """Both quotients of the bank ``fb`` with their factorization residuals."""
    r = compute_R(fb, ann_n, ann_n1)
    s = compute_S(fb, ann_n1, cross_check_R=r)
    res_r = max_coeff_dev(ann_n1.symbol.mul(fb.A), r.mul(ann_n.symbol.upsample()))
    res_s = max_coeff_dev(fb.B_tilde.involution(), s.mul(ann_n1.symbol))
    return FactorizationPair(r, s, res_r, res_s)


# ----------------------------------------------------------------------
# multilevel transform (periodic)
# ----------------------------------------------------------------------

def _analysis_step(mask: LevelMask, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One periodic analysis step; ``c`` has even length at mask level + 1."""
    coarse = c[0::2] @ _DINV_T
    return coarse, c[1::2] - _predict(mask, coarse)


def _check_signals(spec: SpaceSpec, *signals) -> None:
    """Every signal has the space's dim and holds finite data only."""
    for s in signals:
        if s.dim != spec.dim:
            raise ValueError(
                f"signal dim {s.dim} does not match the space's dim {spec.dim}"
            )
        if not np.isfinite(s.data).all():
            raise ValueError(
                f"{type(s).__name__} at level {s.level} holds a non-finite value"
            )


def analyze(
    spec: SpaceSpec, signal: HermiteSignal, levels: int
) -> tuple[HermiteSignal, list[DetailSignal]]:
    """Depth-``levels`` periodic analysis.

    The step from level ``n - l + 1`` down to ``n - l`` uses the bank of
    mask level ``n - l``.  The low-pass is ``c[n-1]_k = D^-1 c[n]_{2k}``;
    details are stored downsampled (``d_hat_k = d_{2k+1}``; even-index
    fine details vanish identically for interpolatory banks).  Returns
    the coarse signal and the detail signals ordered finest first.
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
    details: list[DetailSignal] = []
    for step in range(1, levels + 1):
        mask = make_mask(spec, n - step)
        c, d = _analysis_step(mask, c)
        details.append(DetailSignal(n - step, d))
    return HermiteSignal(n - levels, c, signal.start), details


def synthesize(
    spec: SpaceSpec, coarse: HermiteSignal, details: list[DetailSignal]
) -> HermiteSignal:
    """Exact inverse of :func:`analyze` (details ordered finest first)."""
    _check_signals(spec, coarse, *details)
    c = coarse.data
    level = coarse.level
    for det in reversed(details):
        if det.level != level:
            raise ValueError(
                f"detail level {det.level} does not match coarse level {level}"
            )
        if len(det) != len(c):
            raise ValueError(
                f"shape mismatch: {len(det)} details for {len(c)} coarse nodes"
            )
        mask = make_mask(spec, level)
        out = np.empty((2 * len(c), mask.dim))
        out[0::2] = c @ mask.tap(0).T
        out[1::2] = _predict(mask, c) + det.data
        c = out
        level += 1
    return HermiteSignal(level, c, coarse.start)


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
    total = kept = 0
    pruned = []
    for det in details:
        mags = np.max(np.abs(det.data), axis=1)
        keep = mags > threshold
        data = np.where(keep[:, None], det.data, 0.0)
        total += len(det)
        kept += int(keep.sum())
        pruned.append(DetailSignal(det.level, data))
    rec = synthesize(spec, coarse, pruned)
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
    spec: SpaceSpec,
    entry_level: int,
    coarse: HermiteSignal,
    details: list[DetailSignal],
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


def transform_from_json_dict(d: dict) -> tuple[SpaceSpec, int, HermiteSignal, list[DetailSignal]]:
    """Inverse of :func:`transform_to_json_dict`; every coefficient must be finite."""
    spec = SpaceSpec(int(d["spec"]["p"]), d["spec"]["lambda"])
    entry = int(d["entry_level"])
    levels = int(d["L"])
    coarse = HermiteSignal(entry - levels, _finite_block(d["coarse"], "coarse"))
    details = [
        DetailSignal(entry - step, _finite_block(block, f"details[{step - 1}] (level {entry - step})"))
        for step, block in enumerate(d["details"], start=1)
    ]
    return spec, entry, coarse, details
