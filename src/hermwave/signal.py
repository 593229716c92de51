"""Hermite data model: level-tagged value/derivative samples and file I/O.

A Hermite signal at level ``n`` stores, per node ``k``, the vector

    v_k = [f(2^-n k), 2^-n f'(2^-n k), ..., 2^-nd f^(d)(2^-n k)]

("v-coordinates": derivative ``j`` pre-scaled by ``2^-nj``).  These are
the natural coordinates in which the subdivision stencil applies without
explicit diagonal rescaling at runtime.

One type, :class:`HermiteSignal`, holds every such sequence, transform
coefficients included; its constructor rejects non-finite data and keeps
a read-only copy.  Arrays the library has just computed become signals
without a copy (:meth:`HermiteSignal._computed`).

Boundary policy: periodic extension is the single supported policy for
finite-signal convolutions; periodic transform data starts at node 0,
and its length must be divisible by ``2^L`` before a depth-``L``
transform.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class HermiteSignal:
    """A finite sequence of Hermite vectors in v-coordinates.

    Transform coarse data and details start at node 0; row ``k`` of the
    level-``n`` details belongs to the level-``n+1`` node ``2k+1``.

    Attributes
    ----------
    level : int
        The scale level ``n``; node ``k`` sits at ``x = 2^-n (start+k)``.
    data : numpy.ndarray
        Shape ``(N, dim)``; row ``k`` is the v-vector at node ``start+k``.
        Every entry is finite; the signal keeps a read-only copy.
    start : int
        Integer index of the first node (0 for periodic transform data).
    """

    level: int
    data: np.ndarray = field(repr=False)
    start: int = 0

    def __post_init__(self):
        d = np.asarray(self.data, dtype=float)
        if d.ndim != 2:
            raise ValueError(f"signal data must be 2-D, got shape {d.shape}")
        _check_finite(self.level, d)
        # the private copy keeps both checks true for the signal's lifetime
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "data", d)

    @classmethod
    def _computed(cls, level: int, data: np.ndarray, start: int = 0) -> HermiteSignal:
        """A signal over ``data``, a 2-D float array the library has just computed.

        Neither copies nor checks: the caller has checked that ``data`` is
        finite, and nothing else writes to it (it is a fresh array, or
        another signal's read-only data).  ``data`` becomes read-only.
        """
        data.setflags(write=False)
        sig = object.__new__(cls)
        sig.__dict__.update(level=level, data=data, start=start)  # past the frozen __setattr__
        return sig

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def __len__(self) -> int:
        return self.data.shape[0]

    def nodes(self) -> np.ndarray:
        """Integer node indices."""
        return self.start + np.arange(len(self))

    def grid(self) -> np.ndarray:
        """Physical positions ``2^-level * node``."""
        return self.nodes() * 2.0 ** (-self.level)


def _check_finite(level: int, data: np.ndarray) -> None:
    """Raise the named error if the level-``level`` ``data`` holds a NaN or an infinity."""
    if not np.isfinite(data).all():
        raise ValueError(f"HermiteSignal at level {level} holds a non-finite value")


# ----------------------------------------------------------------------
# exact sampling
# ----------------------------------------------------------------------

def monomial(q: int):
    """The function ``x^q`` with all derivatives, as ``f(x, j)``.

    ``x`` may be a float or an array; a derivative that vanishes
    identically is the scalar ``0.0``.
    """

    def f(x, j: int):
        if j > q:
            return 0.0
        return math.perm(q, j) * x ** (q - j)

    return f


def exponential(a: float):
    """The function ``e^{a x}`` with all derivatives, as ``f(x, j)``."""

    def f(x, j: int):
        return a**j * np.exp(a * x)

    return f


def hyperbolic_cosine(lam: float):
    """``cosh(lam x)`` with all derivatives, as ``f(x, j)``."""

    def f(x, j: int):
        g = np.cosh if j % 2 == 0 else np.sinh
        return lam**j * g(lam * x)

    return f


def sine(omega: float):
    """``sin(omega x)`` with all derivatives, as ``f(x, j)``."""

    def f(x, j: int):
        sign = -1.0 if j % 4 >= 2 else 1.0
        g = np.sin if j % 2 == 0 else np.cos
        return omega**j * (sign * g(omega * x))

    return f


def v_vector(f, level: int, k: int, dim: int) -> np.ndarray:
    """The v-coordinate vector of ``f`` at level ``level``, node ``k``."""
    return sample_function(f, level, k, 1, dim).data[0]


def sample_function(f, level: int, start: int, count: int, dim: int = 3) -> HermiteSignal:
    """Exact v-coordinate samples of ``f`` on ``count`` consecutive nodes.

    ``f(x, j)`` is called once per derivative ``j < dim`` with ``x`` the
    array of the ``count`` node positions, and must return the ``j``-th
    derivative there as an array (or scalar) that broadcasts to ``x``;
    tabulated data should be wrapped in such a callable.

    Raises
    ------
    ValueError
        If ``f`` fails on the array (e.g. it calls ``math.exp``), returns
        a result of the wrong shape, or gives a non-finite sample.
    """
    x = 2.0 ** (-level) * np.arange(start, start + count, dtype=float)
    data = np.empty((count, dim))
    for j in range(dim):
        try:
            # a non-finite sample is reported below, by node, as an error
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                column = f(x, j)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"f(x, {j}) failed on an array of {count} node positions ({exc}); "
                "f must accept numpy arrays, e.g. use np.exp instead of math.exp"
            ) from exc
        try:
            data[:, j] = column
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"f(x, {j}) returned shape {np.shape(column)}, which does not "
                f"broadcast to the {count} node positions"
            ) from exc
        data[:, j] *= 2.0 ** (-level * j)
        bad = np.flatnonzero(~np.isfinite(data[:, j]))
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"f(x, {j}) is not finite at node {start + k} (x = {float(x[k])!r})")
    return HermiteSignal._computed(level, data, start)


# ----------------------------------------------------------------------
# CSV I/O
# ----------------------------------------------------------------------

class SignalFormatError(ValueError):
    """Raised for malformed signal files; the message names the line."""


_BLOCK_ROWS = 8192  # rows formatted per write, so the text held stays small


def csv_blocks(data: np.ndarray, labels: range | None = None):
    """CSV text of the rows of ``data``, yielded ``_BLOCK_ROWS`` rows at a time.

    A row is ``labels[i]`` (when given), then every entry of ``data[i]`` as
    its shortest round-trip ``repr``, joined by commas and ended by a
    newline.
    """
    row = ",".join((["{}"] if labels is not None else []) + ["{!r}"] * data.shape[1]) + "\n"
    for i in range(0, len(data), _BLOCK_ROWS):
        columns = data[i : i + _BLOCK_ROWS].T.tolist()
        if labels is not None:
            columns.insert(0, labels[i : i + _BLOCK_ROWS])
        yield "".join(map(row.format, *columns))


def write_signal(signal: HermiteSignal, dest) -> None:
    """Write CSV: metadata line, header ``k,f0,...,fd``, one row per node.

    ``dest`` is a path or an open text stream (left open).  Numbers use
    shortest round-trip decimal representation (``repr``), so write/read
    is lossless.
    """
    cols = ",".join(f"f{j}" for j in range(signal.dim))
    with contextlib.nullcontext(dest) if hasattr(dest, "write") else open(dest, "w") as fh:
        fh.write(f"# level={signal.level} dim={signal.dim}\n")
        fh.write(f"k,{cols}\n")
        fh.writelines(csv_blocks(signal.data, range(signal.start, signal.start + len(signal))))


def _prefix(text: str) -> str:
    """``text`` cut to 40 characters, for quoting untrusted input in an error."""
    return text if len(text) <= 40 else text[:40] + "..."


def _check_rows(path, lines: list[str], dim: int) -> None:
    """Raise the line-numbered error for the first malformed row of ``lines`` (after the header), if any."""
    for i, ln in enumerate(lines, start=3):
        if not ln.strip():
            continue
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != dim + 1:
            raise SignalFormatError(
                f"{path}: line {i}: expected {dim + 1} cells, got {len(cells)}"
            )
        try:
            # as numpy's reader: no "_" separators or non-ASCII digits, which int/float take
            if any("_" in c or not c.isascii() for c in cells):
                raise ValueError("a cell is not an ASCII decimal number")
            node, values = int(cells[0]), [float(c) for c in cells[1:]]
        except ValueError as exc:
            raise SignalFormatError(f"{path}: line {i}: non-numeric cell") from exc
        if not -(2**63) <= node < 2**63:
            raise SignalFormatError(f"{path}: line {i}: node index out of range")
        if not all(map(math.isfinite, values)):
            raise SignalFormatError(f"{path}: line {i}: non-finite value")


def read_signal(path) -> HermiteSignal:
    """Read the CSV format of :func:`write_signal`.

    Blank lines are skipped; a cell is an ASCII decimal number and every
    value is finite.  numpy's C reader parses the body in one call; only
    a malformed file is scanned row by row, to name the first bad line.
    """
    with open(path) as fh:
        text = fh.read()
    lines = text.split("\n")
    if not lines[0].startswith("# "):
        raise SignalFormatError(
            f"{path}: line 1: missing metadata line '# level=n dim=d+1'"
        )
    meta = {}
    for tok in lines[0][2:].split():
        if "=" not in tok:
            raise SignalFormatError(f"{path}: line 1: malformed metadata token {_prefix(tok)!r}")
        key, val = tok.split("=", 1)
        meta[key] = val
    try:
        level, dim = int(meta["level"]), int(meta["dim"])
    except (KeyError, ValueError) as exc:
        raise SignalFormatError(f"{path}: line 1: need integer level= and dim=") from exc
    if dim < 1:
        raise SignalFormatError(f"{path}: line 1: dim must be >= 1, got {dim}")
    # field by field, lengths first: dim is untrusted, so no header is built from it
    header = lines[1].split(",") if len(lines) > 1 else []
    if len(header) != dim + 1 or header != ["k"] + [f"f{j}" for j in range(dim)]:
        got = _prefix(lines[1]) if len(lines) > 1 else ""
        raise SignalFormatError(f"{path}: line 2: expected header 'k,f0,...,f{dim - 1}', got {got!r}")
    del lines[:2]
    rows = [ln for ln in lines if ln.strip()]
    if not rows:
        raise SignalFormatError(f"{path}: no data rows")
    if not text.isascii():
        # numpy's integer parser reads many non-ASCII letters as digits ("\u01fe" as 462)
        _check_rows(path, lines, dim)
    try:
        with warnings.catch_warnings():
            # older numpy reads an integer cell such as "1.5" through float, with only a warning
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(
                rows, dtype=[("k", np.int64), ("v", float, (dim,))],
                delimiter=",", comments=None, ndmin=1,
            )
        sig = HermiteSignal(level, table["v"], start=int(table["k"][0]))
    except (ValueError, DeprecationWarning):
        _check_rows(path, lines, dim)
        raise SignalFormatError(f"{path}: malformed data rows") from None
    gaps = np.flatnonzero(np.diff(table["k"]) != 1)
    if gaps.size:
        line = [i for i, ln in enumerate(lines, start=3) if ln.strip()][gaps[0] + 1]
        raise SignalFormatError(f"{path}: line {line}: node indices must be consecutive")
    return sig
