"""Command-line front end: construction, verification, transform, rendering.

Subcommands: ``filters``, ``verify``, ``analyze``, ``synthesize``,
``render``, ``compress``.  Each takes only the options it reads (see
:func:`_build_parser`); the space is always ``V_{0,L}``, so ``--lambda``
and the level select the bank.  Every run prints the resolved
configuration; set ``HERMWAVE_LOG`` (debug/info/warning) for verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import logging
import math
import os
import sys

import numpy as np

from . import annihilator, filterbank, signal as sig_mod, subdivision
from .annihilator import SpaceSpec
from .laurent import DivisionError, MatLaurent
from .signal import read_signal, write_signal

log = logging.getLogger("hermwave")


def _write(text: str, output: str | None) -> None:
    """Write ``text`` to the file ``output``, or to the current stdout."""
    with open(output, "w") if output else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(text)
    if output:
        log.info("wrote %s", output)


def _emit(payload: dict, output: str | None, compact: bool = False) -> None:
    # compact output runs json's C encoder, the indenting one is pure Python; NaN and inf raise
    layout = {"separators": (",", ":")} if compact else {"indent": 2}
    _write(json.dumps(payload, allow_nan=False, **layout) + "\n", output)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_filters(args) -> int:
    if args.taylor:
        sym = annihilator.make_taylor(args.d)
        _emit({"taylor": sym.to_json_dict()}, args.output)
        return 0
    spec = SpaceSpec(0, args.lam)
    mask = subdivision.make_mask(spec, args.level)
    bank = filterbank.build(mask)
    res = bank.interpolatory_residual
    print(f"interpolatory residual: {res:.3e}")
    _emit(
        {
            "mask": mask.symbol.to_json_dict(),
            "interpolatory_residual": res,
            **bank.to_json_dict(),
        },
        args.output,
    )
    return 0


def _verify_report(spec: SpaceSpec, levels: range, seed: int, perturb: float, tol_override: float | None):
    """Identity-by-identity residual report for one frequency."""
    checks: list[tuple[str, float, float]] = []  # (name, residual, tolerance)

    def add(name, residual, tol):
        checks.append((name, float(residual), tol if tol_override is None else tol_override))

    lam = spec.lam or 0.0
    space = {"1": sig_mod.monomial(0), "exp+": sig_mod.exponential(lam),
             "exp-": sig_mod.exponential(-lam)}
    ann_n1 = annihilator.make_annihilator(spec, levels[0])
    banks = {}
    for n in levels:
        bank = banks[n] = filterbank.build(subdivision.make_mask(spec, n))
        add(f"interpolatory[n={n}]", bank.interpolatory_residual, 1e-12)
        add(f"biorthogonality[n={n}]", bank.biorthogonality_residual, 1e-12)
        for name, f in space.items():
            add(
                f"vanishing_moments[n={n},f={name}]",
                filterbank.check_vanishing_moments(bank, f),
                1e-10,
            )
        spectral = subdivision.check_spectral_condition(spec, n, 2, functions=space)
        add(f"spectral_exponential[n={n}]", np.max([*spectral.values()]), 1e-9)  # keeps a NaN
        # the previous level's H[n+1] is this level's H[n]
        ann_n, ann_n1 = ann_n1, annihilator.make_annihilator(spec, n + 1)
        try:
            pair = filterbank.factorization_pair(bank, ann_n, ann_n1)
            add(f"factorization_R[n={n}]", pair.residual_R, 1e-10)
            add(f"factorization_S[n={n}]", pair.residual_S, 1e-10)
        except DivisionError as exc:
            add(f"factorization[n={n}] ({exc})", float("inf"), 1e-10)
        add(f"two_level_identity[n={n}]", annihilator.check_two_level_identity(ann_n, ann_n1), 1e-12)
        if spec.lam:
            add(
                f"eigvec_condition[n={n}]",
                annihilator.check_eigvec_condition(ann_n),
                1e-12,
            )
    if spec.lam:
        add("taylor_limit[n=20]", annihilator.taylor_distance(spec, 20), 1e-6)
    # perfect reconstruction on random periodic data
    rng = np.random.default_rng(seed)
    entry = max(levels) + 3
    data = rng.uniform(-1.0, 1.0, size=(64, 3))
    sig = sig_mod.HermiteSignal(entry, data)
    coarse, details = filterbank.analyze(spec, sig, 3)
    rec = filterbank.synthesize(spec, coarse, details)
    add("perfect_reconstruction[L=3]", np.max(np.abs(rec.data - sig.data)), 1e-10)

    if perturb:
        bank = banks[min(levels)]
        bad = {k: np.array(m) for k, m in bank.A.taps().items()}
        bad[1][0, 0] += perturb
        bad_bank = dataclasses.replace(bank, A=MatLaurent.from_taps(3, bad))
        add("perturbed_biorthogonality", filterbank.check_biorthogonality(bad_bank), 1e-12)
    return checks


def cmd_verify(args) -> int:
    if args.level < 0:
        raise ValueError(f"level must be >= 0, got {args.level}")
    for flag, value in (("--perturb", args.perturb), ("--tolerance", args.tolerance)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    # the last level's sample windows are the largest: reject them before any level runs
    subdivision._sample_window(3.0, args.level, 2, f"verify --level {args.level}")
    spec = SpaceSpec(0, args.lam)
    levels = range(0, args.level + 1)
    checks = _verify_report(spec, levels, args.seed, args.perturb, args.tolerance)
    report = {
        name: {"residual": res if math.isfinite(res) else None, "tolerance": tol, "pass": res <= tol}
        for name, res, tol in checks
    }
    failures = [name for name, v in report.items() if not v["pass"]]
    _emit({"checks": report, "failures": failures}, args.output)
    for name, res, tol in checks:
        status = "PASS" if res <= tol else "FAIL"
        log.info("%s %-45s residual %.3e (tol %.0e)", status, name, res, tol)
    print(f"{len(checks) - len(failures)}/{len(checks)} checks passed")
    return 1 if failures else 0


def cmd_analyze(args) -> int:
    spec = SpaceSpec(0, args.lam)
    sig = read_signal(args.input)
    coarse, details = filterbank.analyze(spec, sig, args.depth)
    payload = filterbank.transform_to_json_dict(spec, sig.level, coarse, details)
    _emit(payload, args.output, compact=True)
    max_det = max((float(np.max(np.abs(d.data))) for d in details if len(d)), default=0.0)
    print(f"max detail magnitude: {max_det:.3e}")
    return 0


def cmd_synthesize(args) -> int:
    with open(args.input) as fh:
        payload = json.load(fh)
    spec, _entry, coarse, details = filterbank.transform_from_json_dict(payload)
    rec = filterbank.synthesize(spec, coarse, details)
    write_signal(rec, args.output or sys.stdout)
    if args.output:
        log.info("wrote %s", args.output)
    return 0


def cmd_render(args) -> int:
    spec = SpaceSpec(0, args.lam)
    table = subdivision.render_basic_limit(spec, args.depth, base_level=args.level)
    rows = np.column_stack((table.grid, table.values[:, 0, :]))
    text = "x,phi0,phi1,phi2\n" + "".join(sig_mod.csv_blocks(rows))
    if args.compare_closed_form:
        devs = subdivision.closed_form_deviation(spec, table, args.level)
        text += (
            "# max deviation from closed form: "
            + " ".join(f"phi{j}={devs[j]:.3e}" for j in range(3))
            + "\n"
        )
        print("closed-form deviation:", {f"phi{j}": devs[j] for j in range(3)})
    _write(text, args.output)
    return 0


def cmd_compress(args) -> int:
    spec = SpaceSpec(0, args.lam)
    sig = read_signal(args.input)
    report = filterbank.compress(spec, sig, args.depth, args.threshold)
    _emit(
        {
            "total_details": report.total_details,
            "kept_details": report.kept_details,
            "dropped_fraction": report.dropped_fraction,
            "max_abs_error": report.max_abs_error,
            "max_relative_error": report.max_relative_error,
        },
        args.output,
    )
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The six-subcommand parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="hermwave",
        description="Level-dependent Hermite multiwavelet filter banks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *options):
        p = sub.add_parser(name, help=help)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)

    lam = ("--lambda", dict(dest="lam", type=float, default=2.0,
                            help="exponential frequency (0 = stationary limit)"))
    level = ("--level", dict(type=int, default=0, help="scale level n"))
    output = ("--output", dict(default=None, help="output path (default stdout)"))
    signal = ("--input", dict(required=True, help="input signal CSV"))
    transform_depth = ("--depth", dict(type=int, default=3, help="number of transform levels L"))

    command("filters", cmd_filters, "emit mask and filter-bank symbols as JSON",
            lam, level, output,
            ("--taylor", dict(action="store_true", help="emit the Taylor operator instead")),
            ("--d", dict(type=int, default=2, help="order for --taylor")))
    command("verify", cmd_verify, "run the identity verification suite",
            lam, ("--level", dict(type=int, default=4, help="check levels 0..n")),
            ("--seed", dict(type=int, default=0, help="seed for the reconstruction check")),
            ("--tolerance", dict(type=float, default=None, help="override per-identity tolerances")),
            ("--perturb", dict(type=float, default=0.0,
                               help="perturb a mask tap to prove detector sensitivity")),
            output)
    command("analyze", cmd_analyze, "multilevel analysis of a Hermite signal",
            lam, transform_depth, signal, output)
    command("synthesize", cmd_synthesize, "invert a transform coefficient file",
            ("--input", dict(required=True, help="transform JSON file")), output)
    command("render", cmd_render, "render the limit functions as CSV",
            lam, level, ("--depth", dict(type=int, default=7, help="dyadic rendering depth m")),
            ("--compare-closed-form", dict(action="store_true",
                                           help="append closed-form deviation footer")),
            output)
    command("compress", cmd_compress, "threshold compression demo",
            lam, transform_depth,
            ("--threshold", dict(type=float, default=1e-8, help="detail threshold")),
            signal, output)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("HERMWAVE_LOG", "warning").upper(),
        format="%(levelname)s %(message)s",
    )
    args = _build_parser().parse_args(argv)
    shown = {k: v for k, v in vars(args).items() if k != "func"}
    print(f"config: {shown}")
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
