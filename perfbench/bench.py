"""The benchmark run: phases, operation records, metrics and report.

Imported by ``run.py`` once the package source has been found; see the
README for what each phase and metric means.
"""

from __future__ import annotations

import gc
import json
import logging
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hermwave.cli
import oracle
import tracer
from workloads import GROUPS, Context

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

#: Set-up repetitions; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Least number, and least total seconds, of successful untraced samples
#: of every operation kind in a run.
MIN_SAMPLES = 4
MIN_KIND_S = 1.0

#: Sampling stops once a run has taken this long, enough samples or not.
TIME_CAP_S = 120.0

#: Fresh-interpreter import, timed as part of every set-up.
IMPORT_PROBE = "import sys; sys.path.insert(0, 'src'); import hermwave.cli"

END_TO_END = {
    "setup_s": "s",
    "cli_analyze_ms": "ms",
    "cli_synthesize_ms": "ms",
    "cli_synthesize_stdout_ms": "ms",
    "cli_compress_ms": "ms",
    "coef_file_bytes": "bytes",
    "analyze_Mnodes_s": "Mnodes/s",
    "synthesize_Mnodes_s": "Mnodes/s",
    "small_roundtrips_per_s": "1/s",
    "cli_verify_ms": "ms",
    "cli_filters_ms": "ms",
    "cli_render_ms": "ms",
    "peak_rss_MiB": "MiB",
}

# Span statistics: (metric, span, statistic, owning workload, op kinds or None).
# "ms" is mean inclusive time per call, "self_ms" mean self time per call,
# "calls" calls per operation; only spans under the owner's operations count.
_CERT, _CLI, _KERN = "certify", "cli-pipeline", "kernel-large"
SPAN_METRICS = [
    ("cli.analyze.self_ms", "cli.analyze", "self_ms", _CLI, None),
    ("cli.synthesize.self_ms", "cli.synthesize", "self_ms", _CLI, None),
    ("cli.compress.self_ms", "cli.compress", "self_ms", _CLI, None),
    ("cli.verify.self_ms", "cli.verify", "self_ms", _CERT, None),
    ("cli.render.self_ms", "cli.render", "self_ms", _CERT, None),
    ("cli.filters.self_ms", "cli.filters", "self_ms", _CERT, None),
    ("signal.read_signal.ms", "signal.read_signal", "ms", _CLI, None),
    ("signal.write_signal.ms", "signal.write_signal", "ms", _CLI, None),
    ("signal.sample_function.ms", "signal.sample_function", "ms", _CERT, None),
    ("signal.sample_function.calls", "signal.sample_function", "calls", _CERT, None),
    ("filterbank.transform_to_json_dict.ms", "filterbank.transform_to_json_dict", "ms", _CLI, None),
    ("filterbank.transform_from_json_dict.ms", "filterbank.transform_from_json_dict", "ms", _CLI, None),
    ("filterbank.analyze.ms", "filterbank.analyze", "ms", _KERN, ("kernel_analyze",)),
    ("filterbank.synthesize.ms", "filterbank.synthesize", "ms", _KERN, ("kernel_synthesize",)),
    ("filterbank.compress.ms", "filterbank.compress", "ms", _KERN, None),
    ("filterbank.build.ms", "filterbank.build", "ms", _CERT, None),
    ("filterbank.build.calls", "filterbank.build", "calls", _CERT, None),
    ("filterbank.check_biorthogonality.ms", "filterbank.check_biorthogonality", "ms", _CERT, None),
    ("filterbank.check_biorthogonality.calls", "filterbank.check_biorthogonality", "calls", _CERT, None),
    ("filterbank.factorization_pair.ms", "filterbank.factorization_pair", "ms", _CERT, None),
    ("filterbank.check_vanishing_moments.ms", "filterbank.check_vanishing_moments", "ms", _CERT, None),
    ("subdivision.make_mask.ms", "subdivision.make_mask", "ms", _KERN, None),
    ("subdivision.make_mask.calls", "subdivision.make_mask", "calls", _KERN, None),
    ("subdivision.subdivide_periodic.ms", "subdivision.subdivide_periodic", "ms", _KERN, None),
    ("subdivision.subdivide.ms", "subdivision.subdivide", "ms", _CERT, None),
    ("subdivision.render_basic_limit.ms", "subdivision.render_basic_limit", "ms", _CERT, None),
    ("subdivision.compare_cascade_closed_form.ms", "subdivision.compare_cascade_closed_form", "ms", _CERT, None),
    ("subdivision.interpolatory_residual.ms", "subdivision.interpolatory_residual", "ms", _CERT, None),
    ("subdivision.check_spectral_condition.ms", "subdivision.check_spectral_condition", "ms", _CERT, None),
    *[(f"laurent.MatLaurent.{m}.calls", f"laurent.MatLaurent.{m}", "calls", _CERT, None)
      for m in ("mul", "from_taps", "involution", "negate_arg", "eval")],
    ("laurent.MatLaurent.divide_right.ms", "laurent.MatLaurent.divide_right", "ms", _CERT, None),
    ("annihilator.make_annihilator.calls", "annihilator.make_annihilator", "calls", _CERT, None),
    ("annihilator.check_two_level_identity.ms", "annihilator.check_two_level_identity", "ms", _CERT, None),
    ("annihilator.check_eigvec_condition.ms", "annihilator.check_eigvec_condition", "ms", _CERT, None),
    ("annihilator.taylor_distance.ms", "annihilator.taylor_distance", "ms", _CERT, None),
]
_UNITS = {"ms": "ms", "self_ms": "ms", "calls": "calls/op"}
PER_LAYER = {
    **{m: _UNITS[stat] for m, _, stat, _, _ in SPAN_METRICS},
    "cli.output_bytes": "bytes",
    "filterbank.analyze.bytes_computed": "bytes",
    "filterbank.synthesize.bytes_computed": "bytes",
    "filterbank.analyze.GBps_computed": "GB/s",
    "trace.overhead_pct": "%",
}


@dataclass
class Record:
    """One executed operation."""

    group: str
    kind: str
    label: str
    seconds: float
    status: str  # "ok", "failed" or "wrong"
    traced: bool
    message: str = ""
    extra: dict = field(default_factory=dict)
    spans: tuple[int, int] = (0, 0)


class Bench:
    """One run: set-up, measurement, calibration, then the metrics."""

    def __init__(self, args):
        self.args = args
        self.tracer = tracer.Tracer() if args.trace else None
        work = OUT / "work"
        work.mkdir(parents=True, exist_ok=True)
        self.ctx = Context(work, hermwave.cli.main)
        self.groups = {name: cls(self.ctx) for name, cls in GROUPS.items()}
        self.records: list[Record] = []

    # -- running -----------------------------------------------------

    def setup_once(self, group) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, check=True, timeout=120)
        group.prepare(self.args.seed)
        group.warm()
        return time.perf_counter() - t0

    def run_round(self, group, traced: bool, kinds=None) -> None:
        """One round of ``group``, or only its ``kinds`` operations if given."""
        uninstall = tracer.install(self.tracer) if traced else None
        self.ctx.tracer = self.tracer if traced else None
        try:
            for op in group.round():
                if kinds is None or op.kind in kinds:
                    self.records.append(self._run_op(group.name, op, traced))
        finally:
            self.ctx.tracer = None
            if uninstall:
                uninstall()

    def _run_op(self, group_name: str, op, traced: bool) -> Record:
        rec = Record(group_name, op.kind, op.label, 0.0, "ok", traced, extra=op.extra)
        gc.collect()  # start every operation from the same heap state
        first = len(self.tracer) if traced else 0
        root = self.tracer.open(self.tracer.intern(f"op.{op.kind}")) if traced else None
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # the program raised: the operation failed
            rec.status, rec.message = "failed", f"{type(exc).__name__}: {exc}"
        rec.seconds = time.perf_counter() - t0
        if traced:
            self.tracer.close(root)
            rec.spans = (first, len(self.tracer))
        if rec.status == "ok":
            try:
                verdict = op.check(out)
                if verdict is not True:
                    rec.status, rec.message = "failed", verdict
            except oracle.CheckError as exc:
                rec.status, rec.message = "wrong", str(exc)
            except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
                rec.status, rec.message = "wrong", f"unreadable output: {type(exc).__name__}: {exc}"
        return rec

    def lacking(self, group) -> set[str]:
        """Kinds of ``group`` short of MIN_SAMPLES or MIN_KIND_S of untraced successes."""
        times: dict[str, list[float]] = {}
        for r in self.records:
            if r.group == group.name:
                ok = times.setdefault(r.kind, [])
                if r.status == "ok" and not r.traced:
                    ok.append(r.seconds)
        return {k for k, v in times.items() if len(v) < MIN_SAMPLES or sum(v) < MIN_KIND_S}

    def run(self) -> dict:
        args = self.args
        start = time.perf_counter()
        focus = self.groups[args.workload]
        setups = [self.setup_once(focus) for _ in range(SETUP_REPEATS)]
        t0 = time.perf_counter()
        focus_rounds = 0
        while time.perf_counter() - start < TIME_CAP_S and (
                focus_rounds < 2 or time.perf_counter() - t0 < args.seconds
                or not args.trace and self.lacking(focus)):
            # traced runs alternate untraced and traced rounds to measure the overhead
            self.run_round(focus, traced=bool(args.trace) and focus_rounds % 2 == 1)
            focus_rounds += 1
        measured_s = time.perf_counter() - t0
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for name, group in self.groups.items():
            if name == args.workload:
                continue
            group.prepare(args.seed)
            group.warm()
            self.run_round(group, traced=bool(args.trace))
            # calibration counts in no share, so it tops up only the kinds short of samples
            while not args.trace and time.perf_counter() - start < TIME_CAP_S:
                kinds = self.lacking(group)
                if not kinds:
                    break
                self.run_round(group, traced=False, kinds=kinds)
        return {"setups": setups, "peak_rss": peak_rss, "focus_rounds": focus_rounds,
                "measured_s": measured_s}

    # -- metrics -----------------------------------------------------

    def typical_seconds(self, kind: str, traced: bool = False) -> float:
        """Mean over the kind's distinct operations of each one's median time.

        A kind mixes operations of different cost (five frequencies, two
        signals); averaging per-operation medians keeps the mix fixed
        where a median over the pooled calls would jump between them.
        """
        by_label: dict[str, list[float]] = {}
        for r in self.records:
            if r.kind == kind and r.status == "ok" and r.traced == traced:
                by_label.setdefault(r.label, []).append(r.seconds)
        if not by_label:
            raise RuntimeError(f"no successful {kind} operation to time")
        return statistics.fmean(statistics.median(v) for v in by_label.values())

    def end_to_end(self, info: dict) -> dict[str, float]:
        def typical_ms(kind: str) -> float:
            return 1e3 * self.typical_seconds(kind)

        kernel = self.groups["kernel-large"]
        mnodes = kernel.nodes / 1e6
        coef = [r.extra["coef_bytes"] for r in self.records if "coef_bytes" in r.extra]
        if not coef:
            raise RuntimeError("no coefficient file written")
        return {
            "setup_s": statistics.median(info["setups"]),
            "cli_analyze_ms": typical_ms("cli_analyze"),
            "cli_synthesize_ms": typical_ms("cli_synthesize"),
            "cli_synthesize_stdout_ms": typical_ms("cli_synthesize_stdout"),
            "cli_compress_ms": typical_ms("cli_compress"),
            "coef_file_bytes": statistics.median(coef),
            "analyze_Mnodes_s": mnodes / self.typical_seconds("kernel_analyze"),
            "synthesize_Mnodes_s": mnodes / self.typical_seconds("kernel_synthesize"),
            "small_roundtrips_per_s": 1.0 / self.typical_seconds("small_roundtrip"),
            "cli_verify_ms": typical_ms("cli_verify"),
            "cli_filters_ms": typical_ms("cli_filters"),
            "cli_render_ms": typical_ms("cli_render"),
            "peak_rss_MiB": info["peak_rss"],
        }

    def per_layer(self) -> dict[str, float]:
        spans = self.tracer.arrays()
        traced = [r for r in self.records if r.traced]
        owner = np.full(len(spans["name"]), -1)
        for i, r in enumerate(traced):
            owner[r.spans[0]:r.spans[1]] = i
        duration = spans["end_ns"] - spans["start_ns"]
        out = {}
        for metric, span, stat, group, kinds in SPAN_METRICS:
            ops = [i for i, r in enumerate(traced)
                   if r.group == group and (kinds is None or r.kind in kinds)]
            sel = np.isin(owner, ops) & (spans["name"] == self.tracer.intern(span))
            if stat == "calls":
                out[metric] = int(sel.sum()) / len(ops)
            else:
                vals = (spans["self_ns"] if stat == "self_ms" else duration)[sel]
                out[metric] = float(vals.mean()) / 1e6 if len(vals) else 0.0
        out["cli.output_bytes"] = statistics.mean(
            r.extra["out_bytes"] for r in self.records if "out_bytes" in r.extra)
        # computed traffic of one depth-L transform of N nodes: every level reads
        # its input rows once and writes its coarse and detail halves once
        kernel = self.groups["kernel-large"]
        moved = float(sum(2 * 24 * (kernel.nodes >> step) for step in range(kernel.DEPTH)))
        out["filterbank.analyze.bytes_computed"] = moved
        out["filterbank.synthesize.bytes_computed"] = moved
        out["filterbank.analyze.GBps_computed"] = moved / (out["filterbank.analyze.ms"] * 1e6)
        focus_kinds = {r.kind for r in self.records if r.group == self.args.workload}
        plain = sum(self.typical_seconds(k) for k in focus_kinds)
        with_trace = sum(self.typical_seconds(k, traced=True) for k in focus_kinds)
        out["trace.overhead_pct"] = 100.0 * (with_trace - plain) / plain
        return out

    def layer_self_ms(self) -> dict[str, dict[str, float]]:
        """Self time per layer (span-name prefix), summed over each workload's traced operations."""
        spans = self.tracer.arrays()
        layers = sorted({n.split(".")[0] for n in self.tracer.names})
        layer_id = np.array([layers.index(n.split(".")[0]) for n in self.tracer.names])[spans["name"]]
        groups = list(self.groups)
        group_id = np.full(len(layer_id), -1)
        for r in self.records:
            if r.traced:
                group_id[r.spans[0]:r.spans[1]] = groups.index(r.group)
        sel = group_id >= 0
        ns = np.bincount(group_id[sel] * len(layers) + layer_id[sel], weights=spans["self_ns"][sel],
                         minlength=len(groups) * len(layers))
        return {g: dict(zip(layers, row / 1e6)) for g, row in zip(groups, ns.reshape(len(groups), -1))}

    # -- report ------------------------------------------------------

    def report(self, info: dict, metrics: dict, units: dict) -> None:
        a = self.args
        print(f"# workload {a.workload} seed {a.seed} trace {a.trace}: "
              f"{info['focus_rounds']} rounds in {info['measured_s']:.2f} s, "
              f"setups {[round(s, 3) for s in info['setups']]} s")
        kinds: dict[tuple[str, str], list[Record]] = {}
        for r in self.records:
            kinds.setdefault((r.group, r.kind), []).append(r)
        print("# group          kind                   n   fail  median_ms   tail")
        for (group, kind), recs in kinds.items():
            times = sorted(1e3 * r.seconds for r in recs if r.status == "ok")
            fails = sum(r.status != "ok" for r in recs)
            med = f"{statistics.median(times):10.3f}" if times else "         -"
            tail = ""
            if len(times) >= 40:  # highest percentile with ten samples beyond it
                q = int(100 * (1 - 10 / len(times)))
                tail = f"p{q}={statistics.quantiles(times, n=100)[q - 1]:.3f}"
            print(f"# {group:14s} {kind:22s} {len(recs):4d} {fails:5d} {med} {tail}")
        bad: dict[tuple[str, str, str, str], int] = {}
        for r in self.records:
            if r.status != "ok":
                key = (r.status, r.group, r.label, r.message)
                bad[key] = bad.get(key, 0) + 1
        for (status, group, label, message), n in bad.items():
            print(f"# {status} x{n}: {group} {label}: {message}")
        for name, value in metrics.items():
            print(f"# {name:44s} {value:16.6f} {units[name]}")


def main(args) -> int:
    """Run one workload and print the report and the result line."""
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(OUT / "tmp")  # `synthesize` to stdout writes a temporary file
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    bench = Bench(args)
    info = bench.run()
    try:
        if args.trace:
            metrics, units = bench.per_layer(), PER_LAYER
            bench.tracer.save(OUT / f"trace-{args.workload}.npz")
            for group, layers in bench.layer_self_ms().items():
                shown = ", ".join(f"{k} {v:.1f}" for k, v in sorted(layers.items()))
                print(f"# self ms by layer, {group} operations: {shown}")
        else:
            metrics, units = bench.end_to_end(info), END_TO_END
    except RuntimeError as exc:
        bench.report(info, {}, {})
        print(f"error: {exc}", file=sys.stderr)
        return 1
    bench.report(info, metrics, units)
    focus = [r for r in bench.records if r.group == args.workload]
    result = {
        "correct": not any(r.status == "wrong" for r in bench.records),
        "attempted": len(focus),
        "failed": sum(r.status == "failed" for r in focus),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0
