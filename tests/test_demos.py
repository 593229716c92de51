"""The demos under ``demos/`` run to the end and print their reports."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name, expected",
    [
        ("01_limit_functions.py", "deviation from the piecewise closed forms"),
        ("02_filter_bank.py", "vanishing-moment residual"),
        ("03_compression.py", "details dropped"),
    ],
)
def test_demo_main_runs(name, expected, capsys):
    runpy.run_path(str(DEMOS / name), run_name="demo")["main"]()
    assert expected in capsys.readouterr().out
