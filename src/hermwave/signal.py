"""Hermite data model: level-tagged value/derivative samples and file I/O.

A Hermite signal at level ``n`` stores, per node ``k``, the vector

    v_k = [f(2^-n k), 2^-n f'(2^-n k), ..., 2^-nd f^(d)(2^-n k)]

("v-coordinates": derivative ``j`` pre-scaled by ``2^-nj``).  These are
the natural coordinates in which the subdivision stencil applies without
explicit diagonal rescaling at runtime.

Boundary policy: periodic extension is the single supported policy for
finite-signal convolutions; signal lengths must be divisible by ``2^L``
before a depth-``L`` transform.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class HermiteSignal:
    """A finite sequence of Hermite vectors in v-coordinates.

    Attributes
    ----------
    level : int
        The scale level ``n``; node ``k`` sits at ``x = 2^-n (start+k)``.
    data : numpy.ndarray
        Shape ``(N, dim)``; row ``k`` is the v-vector at node ``start+k``.
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
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "data", d)

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


@dataclass(frozen=True)
class DetailSignal:
    """Downsampled detail vectors of one analysis step.

    The fine-grid details of an interpolatory bank vanish at even
    indices, so only ``d_hat[k] = d[2k+1]`` is stored; the length equals
    half the parent approximation length.
    """

    level: int
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = np.asarray(self.data, dtype=float)
        if d.ndim != 2:
            raise ValueError(f"detail data must be 2-D, got shape {d.shape}")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "data", d)

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def __len__(self) -> int:
        return self.data.shape[0]


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
    return HermiteSignal(level, data, start)


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


def _parse_rows(rows: list[str], dim: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Node and value columns of non-blank data rows, or ``None`` if any is malformed."""
    if any(ln.count(",") != dim for ln in rows):
        return None
    cells = ",".join(rows).split(",")
    try:
        nodes = np.array(cells[0 :: dim + 1], dtype=np.int64)
        del cells[0 :: dim + 1]
        data = np.array(cells, dtype=float).reshape(len(rows), dim)
    except (ValueError, OverflowError):
        return None
    return (nodes, data) if np.isfinite(data).all() else None


def _raise_first_bad_row(path, lines: list[str], dim: int) -> None:
    """Raise the line-numbered error for the first malformed data row.

    ``lines`` are the lines after the header; each row is checked as
    :func:`_parse_rows` checks the whole table.
    """
    for i, ln in enumerate(lines, start=3):
        if not ln.strip():
            continue
        cells = ln.split(",")
        if len(cells) != dim + 1:
            raise SignalFormatError(
                f"{path}: line {i}: expected {dim + 1} cells, got {len(cells)}"
            )
        try:
            node, values = int(cells[0]), [float(c) for c in cells[1:]]
        except ValueError as exc:
            raise SignalFormatError(f"{path}: line {i}: non-numeric cell") from exc
        if not -(2**63) <= node < 2**63:
            raise SignalFormatError(f"{path}: line {i}: node index out of range")
        if not all(map(math.isfinite, values)):
            raise SignalFormatError(f"{path}: line {i}: non-finite value")
    raise SignalFormatError(f"{path}: malformed data rows")


def read_signal(path) -> HermiteSignal:
    """Read the CSV format of :func:`write_signal`.

    Blank lines are skipped; every value must be finite.  The body is
    parsed column by column in bulk; only a malformed file is scanned
    row by row, to name the first bad line.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    if not lines[0].startswith("# "):
        raise SignalFormatError(
            f"{path}: line 1: missing metadata line '# level=n dim=d+1'"
        )
    meta = {}
    for tok in lines[0][2:].split():
        if "=" not in tok:
            raise SignalFormatError(f"{path}: line 1: malformed metadata token {tok!r}")
        key, val = tok.split("=", 1)
        meta[key] = val
    try:
        level, dim = int(meta["level"]), int(meta["dim"])
    except (KeyError, ValueError) as exc:
        raise SignalFormatError(f"{path}: line 1: need integer level= and dim=") from exc
    expect = "k," + ",".join(f"f{j}" for j in range(dim))
    if len(lines) < 2 or lines[1] != expect:
        raise SignalFormatError(
            f"{path}: line 2: expected header {expect!r}, got {lines[1] if len(lines) > 1 else ''!r}"
        )
    del lines[:2]
    rows = [ln for ln in lines if ln.strip()]
    if not rows:
        raise SignalFormatError(f"{path}: no data rows")
    parsed = _parse_rows(rows, dim)
    if parsed is None:
        _raise_first_bad_row(path, lines, dim)
    nodes, data = parsed
    if np.any(np.diff(nodes) != 1):
        raise SignalFormatError(f"{path}: node indices must be consecutive")
    return HermiteSignal(level, data, start=int(nodes[0]))
