"""The three operation groups the benchmark drives, with their checks.

A group prepares seeded inputs, makes its first calls, and hands out one
round of operations at a time.  Every round holds the same operations
in the same order, so counts per round repeat exactly.  An operation is
a timed call plus a check that runs after the clock stops:

* the check returns True when the output is correct;
* it returns a string saying why when the program reported a failure
  (nonzero exit code or a failing verification), which counts the
  operation as failed;
* it raises :class:`oracle.CheckError` when the program claims success
  but its output disagrees with the independent reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracle
from hermwave import filterbank as fb
from hermwave.annihilator import SpaceSpec
from hermwave.signal import HermiteSignal

#: Threshold of every ``compress`` call (the CLI default).
THRESHOLD = 1e-8


@dataclass
class CliResult:
    rc: object
    stdout: str
    stderr: str


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool | str]
    extra: dict = field(default_factory=dict)


class Context:
    """What every group shares: the work directory and the CLI entry."""

    def __init__(self, work: Path, cli_main):
        self.work = work
        self._main = cli_main
        self.tracer = None  # set while a traced round runs

    def cli(self, argv: list[str]) -> CliResult:
        """``hermwave.cli.main(argv)`` in-process, output captured.

        With a tracer, the call is one ``cli.<command>`` span.
        """
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.open(self.tracer.intern(f"cli.{argv[0]}")) if self.tracer else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = self._main(argv)
                except SystemExit as exc:
                    rc = exc.code
                except Exception as exc:  # an escaped traceback fails the operation
                    print(f"uncaught {type(exc).__name__}: {exc}", file=err)
                    rc = "exception"
        finally:
            if span is not None:
                self.tracer.close(span)
        return CliResult(rc, out.getvalue(), err.getvalue())

    def path(self, name: str) -> str:
        return str(self.work / name)


def _roundtrip_warmup(lams, level: int, depth: int) -> None:
    """First calls: one tiny analyze/synthesize per frequency and depth."""
    for lam in lams:
        spec = SpaceSpec(0, lam)
        sig = HermiteSignal(level, np.zeros((2 ** (depth + 1), 3)))
        fb.synthesize(spec, *fb.analyze(spec, sig, depth))


def _failure(res: CliResult) -> str:
    """Why a CLI call failed: its exit code and last line of stderr."""
    lines = res.stderr.strip().splitlines()
    return f"exit code {res.rc}" + (f": {lines[-1]}" if lines else "")


def _json_after_config(stdout: str) -> dict:
    """The JSON document the CLI prints after its ``config:`` line."""
    return json.loads(stdout.split("\n", 1)[1])


class CliPipeline:
    """CLI analyze / synthesize / compress on 2^16-node CSV signals."""

    name = "cli-pipeline"
    LEVEL, DEPTH, LAM = 16, 8, 2.0
    KINDS = ("space", "mixed")

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.inputs: dict[str, np.ndarray] = {}
        self.kept: dict[str, int] = {}
        self.checked: dict[str, bytes] = {}  # label -> digest of its checked output

    def prepare(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        self.kept, self.checked = {}, {}
        for kind in self.KINDS:
            data = inputs.v_samples(rng, kind, self.LEVEL, self.LAM)
            inputs.write_csv(self.ctx.path(f"{kind}.csv"), self.LEVEL, data)
            self.inputs[kind] = data

    def warm(self) -> None:
        _roundtrip_warmup([self.LAM], self.LEVEL, self.DEPTH)

    def round(self) -> list[Op]:
        ops = []
        common = ["--lambda", str(self.LAM), "--depth", str(self.DEPTH)]
        for kind in self.KINDS:
            csv, coef = self.ctx.path(f"{kind}.csv"), self.ctx.path(f"{kind}.coef.json")
            rec = self.ctx.path(f"{kind}.rec.csv")
            ops += [
                self._op("cli_analyze", kind, ["analyze", *common, "--input", csv, "--output", coef],
                         coef, self._check_analyze),
                self._op("cli_synthesize", kind, ["synthesize", "--input", coef, "--output", rec],
                         rec, self._check_synthesized),
                self._op("cli_synthesize_stdout", kind, ["synthesize", "--input", coef],
                         None, self._check_synthesized),
                self._op("cli_compress", kind,
                         ["compress", *common, "--threshold", str(THRESHOLD), "--input", csv],
                         None, self._check_compress),
            ]
        return ops

    def _op(self, op_kind, kind, argv, out_path, check) -> Op:
        op = Op(op_kind, f"{op_kind.removeprefix('cli_')} {kind}", lambda: self.ctx.cli(argv), None)

        def checked(res: CliResult) -> bool | str:
            text = Path(out_path).read_text() if out_path and res.rc == 0 else ""
            op.extra["out_bytes"] = len(res.stdout) + len(text)
            if res.rc != 0:
                return _failure(res)
            if op_kind == "cli_analyze":
                op.extra["coef_bytes"] = len(text.encode())
            # the program is deterministic: an output identical to one already
            # checked in this run is correct without parsing it again
            digest = hashlib.sha256((text or res.stdout).encode()).digest()
            if self.checked.get(op.label) != digest:
                check(kind, text or res.stdout)
                self.checked[op.label] = digest
            return True

        op.check = checked
        return op

    def _check_analyze(self, kind: str, text: str) -> None:
        payload = json.loads(text)
        if (payload["entry_level"], payload["L"], payload["spec"]["lambda"]) != (
                self.LEVEL, self.DEPTH, self.LAM):
            raise oracle.CheckError(f"coefficient file header {payload['spec']}, "
                                    f"entry {payload['entry_level']}, L {payload['L']}")
        details = [np.asarray(block, dtype=float) for block in payload["details"]]
        oracle.check_coarse(np.asarray(payload["coarse"], dtype=float), self.inputs[kind], self.DEPTH)
        if kind == "space":
            oracle.check_space_details(details, self.inputs[kind])
        self.kept[kind] = oracle.count_above(details, THRESHOLD)

    def _check_synthesized(self, kind: str, text: str) -> None:
        level, data = inputs.read_csv(text)
        if level != self.LEVEL:
            raise oracle.CheckError(f"synthesized level {level} != {self.LEVEL}")
        oracle.check_roundtrip(data, self.inputs[kind])

    def _check_compress(self, kind: str, text: str) -> None:
        report = _json_after_config(text)
        total = len(self.inputs[kind]) - len(self.inputs[kind]) // 2**self.DEPTH
        if kind not in self.kept:
            raise oracle.CheckError("no coefficient file of this input to compare with")
        if (report["kept_details"], report["total_details"]) != (self.kept[kind], total):
            raise oracle.CheckError(
                f"compress kept {report['kept_details']}/{report['total_details']}, "
                f"coefficient file has {self.kept[kind]}/{total} above {THRESHOLD:g}")


class KernelLarge:
    """Library analyze/synthesize in memory: 2^20 nodes, plus a 2^10 batch."""

    name = "kernel-large"
    LEVEL, DEPTH, LAMS = 20, 10, (0.0, 2.0)
    SMALL_LEVEL, SMALL_DEPTH, SMALL_BATCH = 10, 5, 64

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.big: dict[float, tuple[np.ndarray, HermiteSignal]] = {}
        self.small: list[tuple[float, np.ndarray, HermiteSignal]] = []
        self.last: dict[float, tuple] = {}

    def prepare(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 2])
        self.big = {}
        for lam in self.LAMS:
            data = inputs.v_samples(rng, "mixed", self.LEVEL, lam)
            self.big[lam] = (data, HermiteSignal(self.LEVEL, data))
        self.small = []
        for i in range(self.SMALL_BATCH):
            lam = self.LAMS[i % len(self.LAMS)]
            data = inputs.v_samples(rng, "mixed", self.SMALL_LEVEL, lam)
            self.small.append((lam, data, HermiteSignal(self.SMALL_LEVEL, data)))

    def warm(self) -> None:
        _roundtrip_warmup(self.LAMS, self.LEVEL, self.DEPTH)
        _roundtrip_warmup(self.LAMS, self.SMALL_LEVEL, self.SMALL_DEPTH)

    @property
    def nodes(self) -> int:
        return 2**self.LEVEL

    def round(self) -> list[Op]:
        ops = []
        for lam in self.LAMS:
            spec = SpaceSpec(0, lam)
            ops.append(Op("kernel_analyze", f"analyze lambda={lam:g}",
                          lambda spec=spec, lam=lam: fb.analyze(spec, self.big[lam][1], self.DEPTH),
                          lambda out, lam=lam: self._check_analyze(lam, out)))
            ops.append(Op("kernel_synthesize", f"synthesize lambda={lam:g}",
                          lambda spec=spec, lam=lam: fb.synthesize(spec, *self.last[lam]),
                          lambda out, lam=lam: self._check_synthesize(lam, out)))
        for i, (lam, data, sig) in enumerate(self.small):
            ops.append(Op("small_roundtrip", f"small #{i} lambda={lam:g}",
                          lambda lam=lam, sig=sig: self._small(lam, sig),
                          lambda out, data=data: self._check_small(data, out)))
        return ops

    def _check_analyze(self, lam: float, out) -> bool:
        coarse, details = out
        data = self.big[lam][0]
        oracle.check_coarse(coarse.data, data, self.DEPTH)
        if lam == 0.0:
            oracle.check_stationary_details([d.data for d in details], data)
        self.last[lam] = out
        return True

    def _check_synthesize(self, lam: float, rec) -> bool:
        oracle.check_roundtrip(rec.data, self.big[lam][0])
        return True

    def _small(self, lam: float, sig: HermiteSignal):
        spec = SpaceSpec(0, lam)
        coarse, details = fb.analyze(spec, sig, self.SMALL_DEPTH)
        rec = fb.synthesize(spec, coarse, details)
        return coarse, details, rec, fb.compress(spec, sig, self.SMALL_DEPTH, THRESHOLD)

    def _check_small(self, data: np.ndarray, out) -> bool:
        coarse, details, rec, report = out
        oracle.check_coarse(coarse.data, data, self.SMALL_DEPTH)
        oracle.check_roundtrip(rec.data, data)
        kept = oracle.count_above([d.data for d in details], THRESHOLD)
        if report.kept_details != kept:
            raise oracle.CheckError(f"compress kept {report.kept_details}, {kept} details exceed {THRESHOLD:g}")
        return True


class Certify:
    """CLI filters / verify / render over five frequencies."""

    name = "certify"
    LAMS = ("0", "0.5", "2", "4", "8")
    LEVELS = range(5)
    RENDER_DEPTH = 10

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.seed = 0

    def prepare(self, seed: int) -> None:
        self.seed = seed

    def warm(self) -> None:
        _roundtrip_warmup([float(lam) for lam in self.LAMS], max(self.LEVELS) + 1, max(self.LEVELS) + 1)

    def round(self) -> list[Op]:
        ops = []
        bank, report, phi = (self.ctx.path(n) for n in ("bank.json", "verify.json", "phi.csv"))
        for lam in self.LAMS:
            for level in self.LEVELS:
                argv = ["filters", "--lambda", lam, "--level", str(level), "--output", bank]
                ops.append(self._op("cli_filters", argv, lambda res, lam=lam, level=level:
                                    self._check_bank(res, bank, float(lam), level)))
            argv = ["verify", "--lambda", lam, "--level", str(max(self.LEVELS)),
                    "--seed", str(self.seed), "--output", report]
            ops.append(self._op("cli_verify", argv, lambda res: self._check_verify(res, report)))
            argv = ["render", "--lambda", lam, "--depth", str(self.RENDER_DEPTH),
                    "--compare-closed-form", "--output", phi]
            ops.append(self._op("cli_render", argv, lambda res, lam=lam:
                                self._check_render(res, phi, float(lam))))
        argv = ["verify", "--lambda", "2", "--perturb", "1e-3", "--seed", str(self.seed),
                "--output", report]
        ops.append(self._op("cli_verify", argv, lambda res: self._check_perturbed(res, report)))
        return ops

    def _op(self, kind: str, argv: list[str], check) -> Op:
        return Op(kind, " ".join(argv[:5]), lambda: self.ctx.cli(argv), check)

    @staticmethod
    def _check_bank(res: CliResult, path: str, lam: float, level: int) -> bool | str:
        if res.rc != 0:
            return _failure(res)
        bank = json.loads(Path(path).read_text())
        if (bank["level"], bank["spec"]["lambda"]) != (level, lam):
            raise oracle.CheckError(f"bank header level {bank['level']}, spec {bank['spec']}")
        oracle.check_bank(bank)
        return True

    @staticmethod
    def _check_verify(res: CliResult, path: str) -> bool | str:
        if res.rc not in (0, 1):
            return _failure(res)
        failures = json.loads(Path(path).read_text())["failures"]
        if res.rc == 1:
            return f"exit code 1: failing checks {failures}"
        if failures:
            raise oracle.CheckError(f"verify exited 0 but lists failures {failures}")
        return True

    @staticmethod
    def _check_perturbed(res: CliResult, path: str) -> bool | str:
        if res.rc not in (0, 1):
            return _failure(res)
        failures = json.loads(Path(path).read_text())["failures"]
        if "perturbed_biorthogonality" not in failures:
            raise oracle.CheckError("verify --perturb did not report the perturbed tap")
        if failures != ["perturbed_biorthogonality"] or res.rc != 1:
            return f"exit code {res.rc}: failing checks {failures}"
        return True

    def _check_render(self, res: CliResult, path: str, lam: float) -> bool | str:
        if res.rc != 0:
            return _failure(res)
        table = np.loadtxt(path, delimiter=",", skiprows=1, comments="#", ndmin=2)
        oracle.check_render(table, self.RENDER_DEPTH, lam)
        return True


GROUPS = {g.name: g for g in (CliPipeline, KernelLarge, Certify)}
