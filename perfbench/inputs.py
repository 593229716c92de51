"""Seeded benchmark inputs, computed without the package under test.

Every signal is a table of exact v-coordinate samples
``(f, 2^-n f', 4^-n f'')`` at the nodes ``x = k / 2^n``, ``k = 0 .. N-1``,
of one of two functions on ``[0, 1)``:

* ``space``: ``a + b e^{lam x} + c e^{-lam x}`` (``a + b x + c x^2`` at
  ``lam = 0``), an element of the space the filter bank annihilates
  (:func:`space_basis`);
* ``mixed``: that element plus a periodic component
  ``sum_i s_i sin(2 pi m_i x + phi_i)`` outside the space, plus Gaussian
  noise of standard deviation :data:`NOISE` on every coordinate.

All coefficients come from ``numpy.random.default_rng`` seeded with the
workload seed, so one seed always gives the same inputs.  The CSV
writer is the benchmark's own; the program only ever reads the files.
"""

from __future__ import annotations

import io

import numpy as np

#: Standard deviation of the noise added to ``mixed`` signals.
NOISE = 1e-3

#: Number of sine terms in the periodic component of ``mixed`` signals.
WAVES = 3


def space_basis(lam: float) -> dict:
    """The space ``{1, e^{lam x}, e^{-lam x}}`` (``{1, x, x^2}`` at ``lam = 0``).

    Each entry maps ``x`` to the ``(3, len(x))`` array of the function's
    value, first and second derivative.
    """
    def one(x):
        return np.stack([np.ones_like(x), 0 * x, 0 * x])

    if lam == 0.0:
        return {
            "1": one,
            "x": lambda x: np.stack([x, np.ones_like(x), 0 * x]),
            "x^2": lambda x: np.stack([x * x, 2 * x, np.full_like(x, 2.0)]),
        }
    return {
        "1": one,
        "exp+": lambda x: np.stack([lam**j * np.exp(lam * x) for j in range(3)]),
        "exp-": lambda x: np.stack([(-lam) ** j * np.exp(-lam * x) for j in range(3)]),
    }


def v_samples(rng: np.random.Generator, kind: str, level: int, lam: float) -> np.ndarray:
    """``(2^level, 3)`` exact v-coordinate samples of a seeded function."""
    if kind not in ("space", "mixed"):
        raise ValueError(f"unknown signal kind {kind!r}")
    n = 2**level
    x = np.arange(n, dtype=float) / n
    coeffs = rng.uniform(-1.0, 1.0, 3)
    f, f1, f2 = sum(c * g(x) for c, g in zip(coeffs, space_basis(lam).values()))
    if kind == "mixed":
        amps = rng.uniform(0.2, 1.0, WAVES)
        freqs = rng.integers(1, 9, WAVES)
        phases = rng.uniform(0.0, 2.0 * np.pi, WAVES)
        for s, m, phi in zip(amps, freqs, phases):
            w = 2.0 * np.pi * m
            arg = w * x + phi
            f = f + s * np.sin(arg)
            f1 = f1 + s * w * np.cos(arg)
            f2 = f2 - s * w * w * np.sin(arg)
    h = 2.0**-level
    data = np.column_stack((f, h * f1, h * h * f2))
    if kind == "mixed":
        data += rng.normal(0.0, NOISE, data.shape)
    return data


def write_csv(path, level: int, data: np.ndarray) -> None:
    """Write the signal CSV format (``%.17g`` round-trips every double)."""
    header = f"# level={level} dim={data.shape[1]}\nk," + ",".join(
        f"f{j}" for j in range(data.shape[1])
    )
    table = np.column_stack((np.arange(len(data)), data))
    fmt = ["%d"] + ["%.17g"] * data.shape[1]
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=header, comments="")


def read_csv(text: str) -> tuple[int, np.ndarray]:
    """Parse signal CSV text with numpy alone: ``(level, data)``.

    Lines before the ``# level=`` metadata line (such as the ``config:``
    line the CLI prints before writing CSV to stdout) are skipped.
    """
    start = text.find("# level=")
    if start < 0:
        raise ValueError("no '# level=' metadata line")
    meta, header, body = text[start:].split("\n", 2)
    level = int(meta.split()[1].removeprefix("level="))
    if not header.startswith("k,f0"):
        raise ValueError(f"unexpected header {header!r}")
    table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if not np.array_equal(table[:, 0], np.arange(len(table))):
        raise ValueError("node column is not 0 .. N-1")
    return level, table[:, 1:]
