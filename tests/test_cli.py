"""End-to-end exercises of the command-line front end."""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hermwave.annihilator import SpaceSpec
from hermwave import cli
from hermwave.cli import main
from hermwave.filterbank import analyze, transform_to_json_dict
from hermwave.signal import (
    HermiteSignal,
    hyperbolic_cosine,
    read_signal,
    sample_function,
    write_signal,
)
from hermwave.subdivision import compare_cascade_closed_form, render_basic_limit

from golden_data import A_TAPS


@pytest.fixture
def exp_signal(tmp_path):
    path = tmp_path / "sig.csv"
    write_signal(sample_function(hyperbolic_cosine(2.0), 9, 0, 256), path)
    return path


def test_filters_emits_mask(tmp_path, capsys):
    out = tmp_path / "f.json"
    assert main(["filters", "--lambda", "2", "--level", "0", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    tap_m1 = next(t for t in payload["mask"]["taps"] if t["k"] == -1)
    assert np.allclose(np.reshape(tap_m1["matrix"], (3, 3)), A_TAPS[-1], atol=1e-12)
    assert "A_tilde" in payload and "B_tilde" in payload
    assert "interpolatory residual" in capsys.readouterr().out


#: The options each subcommand reads; nothing else is accepted.
SUBCOMMAND_OPTIONS = {
    "filters": {"--lambda", "--level", "--output", "--taylor", "--d"},
    "verify": {"--lambda", "--level", "--seed", "--tolerance", "--perturb", "--output"},
    "analyze": {"--lambda", "--depth", "--input", "--output"},
    "synthesize": {"--input", "--output"},
    "render": {"--lambda", "--level", "--depth", "--compare-closed-form", "--output"},
    "compress": {"--lambda", "--depth", "--threshold", "--input", "--output"},
}


def _subparsers() -> dict:
    (action,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_each_subcommand_takes_only_the_options_it_reads():
    options = {
        name: {s for a in p._actions if "-h" not in a.option_strings for s in a.option_strings}
        for name, p in _subparsers().items()
    }
    assert options == SUBCOMMAND_OPTIONS
    assert sum(len(o) for o in options.values()) == 27


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--level", "3", "--input", "sig.csv"],
        ["synthesize", "--lambda", "4", "--input", "coef.json"],
        ["filters", "--seed", "1"],
        ["render", "--tolerance", "0"],
        ["compress", "--p", "0", "--input", "sig.csv"],
    ],
)
def test_option_a_subcommand_does_not_read_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# The argv shapes the benchmark (perfbench/workloads.py) sends, copied here so
# that a parser change that would fail its operations fails a test first.
BENCHMARK_ARGV = [
    ["analyze", "--lambda", "2.0", "--depth", "8", "--input", "s.csv", "--output", "c.json"],
    ["synthesize", "--input", "c.json", "--output", "r.csv"],
    ["synthesize", "--input", "c.json"],
    ["compress", "--lambda", "2.0", "--depth", "8", "--threshold", "1e-08", "--input", "s.csv"],
    ["filters", "--lambda", "0.5", "--level", "4", "--output", "bank.json"],
    ["verify", "--lambda", "8", "--level", "4", "--seed", "701", "--output", "verify.json"],
    ["render", "--lambda", "8", "--depth", "10", "--compare-closed-form", "--output", "phi.csv"],
    ["verify", "--lambda", "2", "--perturb", "1e-3", "--seed", "701", "--output", "verify.json"],
]


@pytest.mark.parametrize("argv", BENCHMARK_ARGV, ids=lambda argv: " ".join(argv[:5]))
def test_parser_accepts_every_benchmark_argv(argv):
    args = cli._build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_consecutive_calls_match_fresh_processes(capsys):
    # the parser is built once per process; no call may see another's flags
    calls = [["filters", "--taylor", "--d", "3"], ["filters", "--lambda", "2"], ["verify", "--level", "0"]]
    in_process = []
    for argv in calls:
        rc = main(argv)
        in_process.append((rc, capsys.readouterr().out))
    src = str(Path(cli.__file__).resolve().parents[1])
    fresh = [
        subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); "
             "from hermwave.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
            capture_output=True, text=True,
        )
        for argv in calls
    ]
    assert in_process == [(p.returncode, p.stdout) for p in fresh]
    assert cli._build_parser() is cli._build_parser()


def test_filters_high_frequency_level_zero(tmp_path):
    out = tmp_path / "f.json"
    assert main(["filters", "--lambda", "8", "--level", "0", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["interpolatory_residual"] == 0.0


def _clean_error(capsys, reason):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert reason in err


@pytest.mark.parametrize(
    "lam, reason",
    [("1000", "scaled frequency 1000.0"), ("nan", "must be finite"), ("inf", "must be finite")],
)
def test_bad_frequency_is_a_clean_error(lam, reason, capsys):
    assert main(["filters", "--lambda", lam]) == 2
    _clean_error(capsys, reason)


def test_filters_taylor(tmp_path):
    out = tmp_path / "t.json"
    assert main(["filters", "--taylor", "--d", "2", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    tap0 = next(t for t in payload["taylor"]["taps"] if t["k"] == 0)
    assert np.allclose(
        np.reshape(tap0["matrix"], (3, 3)),
        [[-1, -1, -0.5], [0, -1, -1], [0, 0, -1]],
    )


def test_filters_stationary(tmp_path):
    out = tmp_path / "s.json"
    assert main(["filters", "--lambda", "0", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    tap1 = next(t for t in payload["mask"]["taps"] if t["k"] == 1)
    assert np.allclose(np.reshape(tap1["matrix"], (3, 3)), A_TAPS[1], atol=1e-12)


def test_verify_passes(tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify", "--lambda", "2", "--level", "1", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["failures"] == []
    assert all(v["pass"] for v in report["checks"].values())


def test_verify_tolerance_zero_overrides_every_check(tmp_path):
    out = tmp_path / "r.json"
    assert main(["verify", "--lambda", "2", "--level", "0", "--tolerance", "0", "--output", str(out)]) == 1
    checks = json.loads(out.read_text())["checks"]
    assert checks and all(v["tolerance"] == 0.0 for v in checks.values())


def test_verify_perturbation_fails(tmp_path):
    out = tmp_path / "v.json"
    code = main(
        ["verify", "--lambda", "2", "--level", "0", "--perturb", "1e-3", "--output", str(out)]
    )
    assert code != 0
    report = json.loads(out.read_text())
    assert "perturbed_biorthogonality" in report["failures"]


def test_analyze_synthesize_roundtrip(tmp_path, exp_signal, capsys):
    coeffs = tmp_path / "t.json"
    rec = tmp_path / "rec.csv"
    assert main(
        ["analyze", "--lambda", "2", "--depth", "3", "--input", str(exp_signal), "--output", str(coeffs)]
    ) == 0
    assert main(["synthesize", "--input", str(coeffs), "--output", str(rec)]) == 0
    a, b = read_signal(exp_signal), read_signal(rec)
    assert np.max(np.abs(a.data - b.data)) < 1e-10


def test_coefficient_file_is_compact_json(tmp_path, exp_signal):
    coeffs = tmp_path / "t.json"
    assert main(["analyze", "--depth", "3", "--input", str(exp_signal), "--output", str(coeffs)]) == 0
    text = coeffs.read_text()
    assert text.count("\n") == 1 and ", " not in text
    sig = read_signal(exp_signal)
    spec = SpaceSpec(0, 2.0)
    assert json.loads(text) == transform_to_json_dict(spec, sig.level, *analyze(spec, sig, 3))


def test_synthesize_stdout_matches_file(tmp_path, exp_signal, capsys):
    coeffs, rec = tmp_path / "t.json", tmp_path / "rec.csv"
    main(["analyze", "--lambda", "2", "--depth", "3", "--input", str(exp_signal), "--output", str(coeffs)])
    assert main(["synthesize", "--input", str(coeffs), "--output", str(rec)]) == 0
    capsys.readouterr()
    assert main(["synthesize", "--input", str(coeffs)]) == 0
    config, body = capsys.readouterr().out.split("\n", 1)
    assert config.startswith("config: ")
    assert body == rec.read_text()


@pytest.mark.parametrize(
    "block, value, reason",
    [
        ("details", float("nan"), "non-finite value in the details[1] (level 7) block"),
        ("coarse", float("inf"), "non-finite value in the coarse block"),
        ("details", float("-inf"), "non-finite value in the details[1] (level 7) block"),
    ],
)
def test_synthesize_rejects_non_finite_coefficients(tmp_path, exp_signal, capsys, block, value, reason):
    coeffs, rec = tmp_path / "t.json", tmp_path / "rec.csv"
    assert main(["analyze", "--depth", "3", "--input", str(exp_signal), "--output", str(coeffs)]) == 0
    payload = json.loads(coeffs.read_text())
    if block == "coarse":
        payload["coarse"][3][0] = value
    else:
        payload["details"][1][5][2] = value
    coeffs.write_text(json.dumps(payload))  # json writes NaN / Infinity tokens
    capsys.readouterr()
    assert main(["synthesize", "--input", str(coeffs), "--output", str(rec)]) == 2
    _clean_error(capsys, reason)
    assert not rec.exists()


def test_analyze_wrong_length(tmp_path):
    path = tmp_path / "sig.csv"
    write_signal(sample_function(hyperbolic_cosine(2.0), 9, 0, 66), path)
    assert main(["analyze", "--lambda", "2", "--depth", "3", "--input", str(path)]) == 2


def test_analyze_rejects_non_finite_cell(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text("# level=3 dim=3\nk,f0,f1,f2\n" + "".join(
        f"{k},{'nan' if k == 5 else 1.0},0.0,0.0\n" for k in range(8)))
    assert main(["analyze", "--depth", "1", "--input", str(path)]) == 2
    _clean_error(capsys, "line 8: non-finite value")


def test_dimension_mismatch_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "dim4.csv"
    write_signal(HermiteSignal(4, np.ones((16, 4))), path)
    assert main(["analyze", "--depth", "2", "--input", str(path)]) == 2
    _clean_error(capsys, "signal dim 4 does not match the space's dim 3")
    coeffs = tmp_path / "dim4.json"
    coeffs.write_text(json.dumps({
        "spec": {"p": 0, "lambda": 2.0}, "entry_level": 4, "L": 1,
        "coarse": np.ones((8, 4)).tolist(), "details": [np.ones((8, 4)).tolist()],
    }))
    assert main(["synthesize", "--input", str(coeffs)]) == 2
    _clean_error(capsys, "signal dim 4 does not match the space's dim 3")
    payload = json.loads(coeffs.read_text())
    payload["details"] = [[1.0, 2.0, 3.0]]
    coeffs.write_text(json.dumps(payload))
    assert main(["synthesize", "--input", str(coeffs)]) == 2
    _clean_error(capsys, "signal data must be 2-D")


def test_unsupported_p_in_a_coefficient_file_is_named(tmp_path, exp_signal, capsys):
    coeffs = tmp_path / "c.json"
    assert main(["analyze", "--depth", "2", "--input", str(exp_signal), "--output", str(coeffs)]) == 0
    payload = json.loads(coeffs.read_text())
    payload["spec"]["p"] = 1
    coeffs.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["synthesize", "--input", str(coeffs)]) == 2
    _clean_error(capsys, "(p=0, one frequency pair) family; got p=1")


def test_analyze_of_a_signal_not_starting_at_node_zero(tmp_path, capsys):
    path = tmp_path / "from5.csv"
    write_signal(HermiteSignal(4, np.ones((16, 3)), start=5), path)
    assert main(["analyze", "--depth", "2", "--input", str(path)]) == 2
    _clean_error(capsys, "transform data starts at node 0, got 5 at level 4")


def test_verify_overflowing_frequency_is_a_clean_error(capsys):
    assert main(["verify", "--lambda", "1000"]) == 2
    _clean_error(capsys, "local basis overflows at scaled frequency 1000.0")


def test_compress_rejects_nan_threshold(exp_signal, capsys):
    assert main(["compress", "--threshold", "nan", "--input", str(exp_signal)]) == 2
    _clean_error(capsys, "threshold must be nonnegative")


@pytest.mark.parametrize("command, depth", [("analyze", "-1"), ("compress", "-2")])
def test_negative_depth_is_a_clean_error(exp_signal, capsys, command, depth):
    assert main([command, "--depth", depth, "--input", str(exp_signal)]) == 2
    _clean_error(capsys, f"transform depth must be >= 0, got {depth}")


def test_verify_negative_level_is_a_clean_error(capsys):
    assert main(["verify", "--level", "-1"]) == 2
    _clean_error(capsys, "level must be >= 0, got -1")


@pytest.mark.parametrize("command, level", [("filters", "-1"), ("render", "-2")])
def test_negative_level_is_a_clean_error(tmp_path, capsys, command, level):
    out = tmp_path / "out"
    assert main([command, "--level", level, "--output", str(out)]) == 2
    _clean_error(capsys, f"level must be >= 0, got {level}")
    assert not out.exists()


def test_render_matches_row_by_row_reference(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["render", "--lambda", "4", "--level", "1", "--depth", "6", "--output", str(out)]) == 0
    table = render_basic_limit(SpaceSpec(0, 4.0), 6, base_level=1)
    rows = [
        f"{float(x)!r}," + ",".join(repr(float(table.values[t, 0, j])) for j in range(3))
        for t, x in enumerate(table.grid)
    ]
    assert out.read_text() == "\n".join(["x,phi0,phi1,phi2", *rows]) + "\n"


def test_render_table(tmp_path):
    out = tmp_path / "r.csv"
    assert main(
        ["render", "--lambda", "2", "--depth", "5", "--compare-closed-form", "--output", str(out)]
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,phi0,phi1,phi2"
    center = next(ln for ln in lines[1:] if ln.startswith("0.0,"))
    assert float(center.split(",")[1]) == 1.0
    assert lines[-1].startswith("# max deviation from closed form")


@pytest.mark.parametrize("lam, level, depth", [("0", 0, 5), ("2", 0, 7), ("8", 1, 6)])
def test_render_footer_equals_compare_cascade(tmp_path, lam, level, depth):
    out = tmp_path / "r.csv"
    assert main(["render", "--lambda", lam, "--level", str(level), "--depth", str(depth),
                 "--compare-closed-form", "--output", str(out)]) == 0
    devs = compare_cascade_closed_form(SpaceSpec(0, float(lam)), depth, base_level=level)
    footer = out.read_text().splitlines()[-1]
    assert footer == "# max deviation from closed form: " + " ".join(
        f"phi{j}={devs[j]:.3e}" for j in range(3)
    )


def test_render_distinct_frequencies(tmp_path):
    o2, o4 = tmp_path / "l2.csv", tmp_path / "l4.csv"
    main(["render", "--lambda", "2", "--depth", "4", "--output", str(o2)])
    main(["render", "--lambda", "4", "--depth", "4", "--output", str(o4)])
    assert o2.read_text() != o4.read_text()


def test_compress_report(tmp_path, exp_signal, capsys):
    assert main(
        ["compress", "--lambda", "2", "--depth", "2", "--threshold", "1e-8", "--input", str(exp_signal)]
    ) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{\n"):])
    assert payload["dropped_fraction"] >= 0.98
    assert payload["max_relative_error"] < 1e-8


def test_missing_input_errors(tmp_path):
    assert main(["analyze", "--input", str(tmp_path / "nope.csv")]) == 2
