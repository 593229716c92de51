"""Compress a signal with transcendental features.

A signal built from e^{+lambda x} and e^{-lambda x} lies exactly in the
spaces the level-dependent transform is tuned to, so almost all of its
detail coefficients vanish.  A generic smooth signal compresses well but
not perfectly, and a mismatched frequency sits in between.  This demo
runs the thresholding transform on all three and prints the reports.

Run:  python demos/03_compression.py
"""

import numpy as np

from hermwave import SpaceSpec, compress
from hermwave.signal import sample_function


def report(title: str, spec: SpaceSpec, f, level=9, count=512, threshold=1e-8) -> None:
    sig = sample_function(f, level, 0, count)
    rep = compress(spec, sig, 3, threshold)
    print(f"\n{title}")
    print(f"  details dropped   {rep.dropped_fraction:7.2%}"
          f"  ({rep.total_details - rep.kept_details}/{rep.total_details})")
    print(f"  max abs error     {rep.max_abs_error:.2e}")
    print(f"  max rel error     {rep.max_relative_error:.2e}")


def main() -> None:
    lam = 2.0
    spec = SpaceSpec(0, lam)

    def cosh_like(x, j):
        return 2.0**j * (np.exp(lam * x) + (-1) ** j * np.exp(-lam * x))

    # samples live on x in [0, 1); center the bump there
    def gaussian(x, j):
        u = (x - 0.5) / 0.1
        g = np.exp(-(u * u) / 2.0)
        if j == 0:
            return g
        if j == 1:
            return -g * u / 0.1
        return g * (u * u - 1.0) / 0.01

    def mismatched(x, j):
        return 3.0**j * (np.exp(3.0 * x) + (-1) ** j * np.exp(-3.0 * x))

    report("in-space signal  e^{+2x} + e^{-2x}  (exact match)", spec, cosh_like)
    report("generic smooth signal  (Gaussian bump)", spec, gaussian)
    report("mismatched frequency  e^{+-3x} analyzed at lambda = 2", spec, mismatched)

    print(
        "\nThe in-space signal drops essentially every detail coefficient"
        "\nwith reconstruction error at machine precision.  The mismatched"
        "\nexponential drops as many details but pays three orders of"
        "\nmagnitude in error; the localized bump has to keep more details."
    )


if __name__ == "__main__":
    main()
