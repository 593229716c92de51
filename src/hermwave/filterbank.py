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

both computed by coefficient-matching division in :func:`factorization_pair`,
which checks ``S`` against the closed inverse-conjugation formula.
All identities are checked on exact coefficients, never at sample points.
The periodic transform's coarse data and details are ``HermiteSignal``s
from node 0; synthesis is periodic refinement plus the odd-node details.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .annihilator import Annihilator, SpaceSpec, inverse_dilation_matrix
from .laurent import MatLaurent, even_part_dev, max_coeff_dev
from .signal import HermiteSignal, _check_finite, sample_function
from .subdivision import (
    LevelMask,
    _Scaled,
    _check_family,
    _check_level,
    _lift,
    _refine,
    _scaled,
    _sample_window,
    interpolatory_residual,
    make_mask,
)

#: Residual bound for accepting a bank as biorthogonal.
BIORTHO_TOL = 1e-12


@dataclass(frozen=True)
class FilterBank:
    """The four symbols of one level of the two-channel transform.

    ``A``/``B`` are the synthesis low/high-pass, ``A_tilde``/``B_tilde``
    the analysis low/high-pass.  A bank from :func:`build` also holds the
    two residuals ``build`` checked; a bank built by hand, or by
    ``dataclasses.replace``, holds None there.
    """

    level: int
    spec: SpaceSpec
    A: MatLaurent
    B: MatLaurent
    A_tilde: MatLaurent
    B_tilde: MatLaurent
    interpolatory_residual: float | None = field(default=None, init=False, repr=False, compare=False)
    biorthogonality_residual: float | None = field(default=None, init=False, repr=False, compare=False)
    #: the mask's record (``subdivision._scaled``), which holds the quotients
    _scaled: _Scaled | None = field(default=None, init=False, repr=False, compare=False)

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


class _Bank(NamedTuple):
    """The bank of one mask symbol and the residuals :func:`build` checks."""

    A: MatLaurent
    B: MatLaurent
    A_tilde: MatLaurent
    B_tilde: MatLaurent
    interpolatory: float
    biorthogonality: float


def build(mask: LevelMask) -> FilterBank:
    """Construct the biorthogonal bank of an interpolatory mask.

    Rejects non-interpolatory masks (with the residual in the message)
    and verifies the four biorthogonality identities before returning.
    A mask from :func:`make_mask` reads its bank, built and checked once
    per scaled frequency, from its record.
    """
    rec = mask._scaled
    bank = _bank(mask.symbol) if rec is None else rec.bank
    fb = FilterBank(mask.level, mask.spec, bank.A, bank.B, bank.A_tilde, bank.B_tilde)
    # the init=False fields, past the frozen __setattr__
    fb.__dict__.update(
        interpolatory_residual=bank.interpolatory, biorthogonality_residual=bank.biorthogonality, _scaled=rec
    )
    return fb


def _bank(a: MatLaurent) -> _Bank:
    """The bank of the mask symbol ``a``, with :func:`build`'s checks and messages."""
    res = interpolatory_residual(a)
    if not res <= 1e-10:  # a NaN residual fails
        raise ValueError(f"mask is not interpolatory: residual {res:.3e}")
    dinv = MatLaurent.from_taps(a.dim, {0: inverse_dilation_matrix(a.dim - 1)})
    b = MatLaurent.identity(a.dim, power=1)
    b_tilde = b.mul(dinv).mul(a.involution().negate_arg())
    bio = _biorthogonality(a, b, dinv, b_tilde)
    if not bio <= BIORTHO_TOL:
        raise ValueError(f"constructed bank fails biorthogonality: residual {bio:.3e}")
    return _Bank(a, b, dinv, b_tilde, res, bio)


def build_at(spec: SpaceSpec, level: int) -> FilterBank:
    """Convenience: bank of the derived mask at ``level``."""
    return build(make_mask(spec, level))


def check_biorthogonality(fb: FilterBank) -> float:
    """Max coefficient residual of the four identities (exact for every z).

    ``P#(z) Q(z) + P#(-z) Q(-z)`` is twice the even-power part of the
    product ``P# Q``, so each identity is one product and one parity check.
    A NaN coefficient gives a NaN residual.
    """
    return _biorthogonality(fb.A, fb.B, fb.A_tilde, fb.B_tilde)


def _biorthogonality(a: MatLaurent, b: MatLaurent, a_tilde: MatLaurent, b_tilde: MatLaurent) -> float:
    eye, zero = np.eye(a.dim), np.zeros((a.dim, a.dim))
    pairs = [
        (a_tilde, a, eye),
        (a_tilde, b, zero),
        (b_tilde, a, zero),
        (b_tilde, b, eye),
    ]
    # unlike max(), np.max keeps a NaN residual
    return float(np.max([even_part_dev(p.involution().mul(q), target) for p, q, target in pairs]))


def check_vanishing_moments(fb: FilterBank, f) -> float:
    """Max detail magnitude of the analysis high-pass on exact samples.

    ``f(x, j)`` is sampled exactly at level ``fb.level + 1`` over
    ``|x| <= 2`` and convolved with the high-pass taps on the
    stencil-complete region (no periodic wrap, which would be wrong for
    non-periodic ``f``); for ``f`` in ``V_{0,L}`` the result vanishes.
    """
    n1 = fb.level + 1
    m = _sample_window(2.0, n1, 0, "check_vanishing_moments")
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


def factorization_pair(fb: FilterBank, ann_n: Annihilator, ann_n1: Annihilator) -> FactorizationPair:
    """Both quotients of the bank ``fb`` through ``H[n] = ann_n`` and ``H[n+1] = ann_n1``.

    ``R`` of ``H[n+1](z) A[n](z) = R[n](z) H[n](z^2)`` and ``S`` of
    ``(B~[n])#(z) = S[n](z) H[n+1](z)``, each by coefficient matching, with
    the residuals of the two divisions; ``S`` must also meet the closed
    formula (:func:`_check_closed_form`).  A bank from :func:`build` with
    the operators of :func:`make_annihilator` reads the pair, computed once
    per scaled frequency, from the mask's record.  A failed division raises
    ``DivisionError``; operator levels that do not bracket the bank's, or a
    miss of the closed formula, raise ``ValueError``.
    """
    if ann_n.level != fb.level or ann_n1.level != fb.level + 1:
        raise ValueError(
            f"operator levels ({ann_n.level}, {ann_n1.level}) must bracket "
            f"bank level {fb.level}"
        )
    rec = fb._scaled
    if rec is not None and ann_n.symbol is rec.h and ann_n1.symbol is _scaled(rec.mu / 2.0).h:
        return rec.quotients
    return _quotients(fb, ann_n.symbol, ann_n1.symbol)


def _quotients(fb, h_n: MatLaurent, h_n1: MatLaurent) -> FactorizationPair:
    """The pair of :func:`factorization_pair`; ``fb`` is a bank or a ``_Bank``."""
    r, res_r = h_n1.mul(fb.A)._divide(h_n.upsample())
    s, res_s = fb.B_tilde.involution()._divide(h_n1)
    _check_closed_form(fb, h_n1, r, s)
    return FactorizationPair(r, s, res_r, res_s)


def _check_closed_form(fb, h_n1: MatLaurent, r: MatLaurent, s: MatLaurent) -> None:
    """Raise unless ``S(z) = -z^-1 H[n+1](-z)^-1 R[n](-z) D^-1 H[n+1](-z)``.

    Checked in its polynomial form ``-z H[n+1](-z) S(z) = R[n](-z) D^-1
    H[n+1](-z)``, on coefficients; ``D^-1`` is ``fb.A_tilde``.
    """
    h_neg = h_n1.negate_arg()
    lhs = MatLaurent.identity(h_n1.dim, power=1).mul(h_neg).mul(s).scale(-1.0)
    dev = max_coeff_dev(lhs, r.negate_arg().mul(fb.A_tilde).mul(h_neg))
    if not dev <= 1e-8:
        raise ValueError(f"wavelet quotient disagrees with the closed formula: {dev:.3e}")


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
            _lift(_scaled(spec.frequency_at(n - step)).taps, c, fine, d, analysis=True)
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
    if details:
        _check_level(coarse.level)
    return _refine_levels(spec, coarse.level, coarse.data, [det.data for det in details])


def _refine_levels(spec: SpaceSpec, level: int, c: np.ndarray, details: list[np.ndarray]) -> HermiteSignal:
    """The synthesis loop on checked arrays: refine ``c`` from ``level`` by each detail array.

    The spec is in the mask family and ``level`` is not negative.  The
    result is checked once for an overflow; it shares no memory with
    ``details``, nor with ``c`` unless there are no details.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # _check_finite names an overflow
        for d in reversed(details):
            c = _refine(_scaled(spec.frequency_at(level)).taps, c, d)
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
    """A coefficient block as a fresh 2-D float array; ``json`` parses ``NaN`` and ``Infinity``."""
    data = np.array(block, dtype=float)
    if not np.isfinite(data).all():
        raise ValueError(f"coefficient file: non-finite value in the {name} block")
    if data.ndim != 2:
        raise ValueError(f"signal data must be 2-D, got shape {data.shape}")
    return data


def transform_from_json_dict(d: dict) -> tuple[SpaceSpec, int, HermiteSignal, list[HermiteSignal]]:
    """Inverse of :func:`transform_to_json_dict`; every coefficient must be finite."""
    spec = SpaceSpec(int(d["spec"]["p"]), d["spec"]["lambda"])
    entry = int(d["entry_level"])
    levels = int(d["L"])
    coarse = HermiteSignal._computed(entry - levels, _finite_block(d["coarse"], "coarse"))
    details = [
        HermiteSignal._computed(entry - step, _finite_block(block, f"details[{step - 1}] (level {entry - step})"))
        for step, block in enumerate(d["details"], start=1)
    ]
    return spec, entry, coarse, details
