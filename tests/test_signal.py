"""Hermite data model, exact sampling, CSV I/O."""

import io
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hermwave.annihilator import dilation_matrix
from hermwave.signal import (
    HermiteSignal,
    SignalFormatError,
    exponential,
    hyperbolic_cosine,
    monomial,
    read_signal,
    sample_function,
    sine,
    v_vector,
    write_signal,
)

from golden_data import norms


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------

def test_constant_samples():
    sig = sample_function(monomial(0), 3, 0, 8)
    assert np.array_equal(sig.data, np.tile([1.0, 0.0, 0.0], (8, 1)))


def test_linear_samples():
    v = v_vector(monomial(1), 2, 5, 3)
    assert v == pytest.approx([5 / 4, 1 / 4, 0.0])


def test_exponential_samples():
    v = v_vector(exponential(2.0), 1, 1, 3)
    e = math.exp(1.0)
    assert v == pytest.approx([e, e, e])


def test_even_node_dilation_relation():
    # v at level n+1, node 2k equals D times v at level n, node k
    d = dilation_matrix(2)
    for f in (monomial(3), exponential(1.5)):
        for n in (0, 2):
            for k in (-3, 0, 5):
                fine = v_vector(f, n + 1, 2 * k, 3)
                coarse = v_vector(f, n, k, 3)
                assert fine == pytest.approx(d @ coarse, rel=1e-14)


# Scalar ``math`` forms of the four factories: ``(name, parameter) -> f(x, j)``.
SCALAR_REFERENCE = {
    "monomial": lambda q: lambda x, j: 0.0 if j > q else math.perm(q, j) * x ** (q - j),
    "exponential": lambda a: lambda x, j: a**j * math.exp(a * x),
    "hyperbolic_cosine": lambda lam: lambda x, j: lam**j * (math.cosh if j % 2 == 0 else math.sinh)(lam * x),
    "sine": lambda w: lambda x, j: w**j * (math.sin, math.cos, lambda t: -math.sin(t), lambda t: -math.cos(t))[j % 4](w * x),
}
FACTORIES = {
    "monomial": monomial,
    "exponential": exponential,
    "hyperbolic_cosine": hyperbolic_cosine,
    "sine": sine,
}
PARAMETERS = {
    "monomial": st.integers(0, 5),
    "exponential": st.floats(-2.0, 2.0),
    "hyperbolic_cosine": st.floats(-2.0, 2.0),
    "sine": st.floats(-20.0, 20.0),
}


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(FACTORIES)).flatmap(
        lambda name: st.tuples(st.just(name), PARAMETERS[name])
    ),
    st.integers(0, 10),
    st.integers(-256, 256),
    st.integers(1, 64),
    st.integers(1, 4),
)
def test_sample_function_matches_scalar_reference(factory, level, start, count, dim):
    # one array call per derivative against a math call per node, to 2 ulps
    name, param = factory
    got = sample_function(FACTORIES[name](param), level, start, count, dim).data
    f = SCALAR_REFERENCE[name](param)
    ref = np.array(
        [[2.0 ** (-level * j) * f(2.0 ** (-level) * k, j) for j in range(dim)]
         for k in range(start, start + count)]
    )
    assert got.shape == (count, dim) and not got.flags.writeable
    assert np.all(np.abs(got - ref) <= 2 * np.spacing(np.abs(ref)))


def test_sample_function_rejects_scalar_only_callable():
    with pytest.raises(ValueError, match=r"f\(x, 0\) failed on an array of 8 node positions.*np\.exp"):
        sample_function(lambda x, j: math.exp(x), 3, 0, 8)


def test_sample_function_rejects_unbroadcastable_result():
    with pytest.raises(ValueError, match=r"returned shape \(3,\).*8 node positions"):
        sample_function(lambda x, j: np.ones(3), 3, 0, 8)
    with pytest.raises(ValueError, match=r"returned shape \(8, 1\)"):
        sample_function(lambda x, j: x[:, None], 3, 0, 8)


@pytest.mark.parametrize(
    "f, where",
    [
        (exponential(1000.0), "f(x, 0) is not finite at node 6 (x = 0.75)"),
        (lambda x, j: np.sqrt(x - 0.25 * j), "f(x, 1) is not finite at node 0 (x = 0.0)"),
        (lambda x, j: 1.0 / x, "f(x, 0) is not finite at node 0 (x = 0.0)"),
    ],
)
def test_sample_function_rejects_non_finite_samples(f, where):
    with pytest.raises(ValueError) as info:
        sample_function(f, 3, 0, 8)
    assert str(info.value) == where


def test_scalar_samples_broadcast():
    sig = sample_function(lambda x, j: float(j), 1, -2, 5)
    assert np.array_equal(sig.data, np.tile([0.0, 0.5, 0.5], (5, 1)))


def test_grid_positions():
    sig = sample_function(monomial(0), 2, -4, 9)
    assert sig.grid() == pytest.approx(np.arange(-4, 5) / 4.0)


def test_norms():
    assert norms(HermiteSignal(0, np.zeros((4, 3)))) == (0.0, 0.0)
    one = np.zeros((1, 3))
    one[0, 0] = 1.0
    assert norms(HermiteSignal(0, one)) == (1.0, 1.0)
    const = np.tile([1.0, 0.0, 0.0], (64, 1))
    assert norms(HermiteSignal(0, const)) == (1.0, 64.0)


# ----------------------------------------------------------------------
# CSV I/O
# ----------------------------------------------------------------------

def test_roundtrip_bit_stable(tmp_path):
    rng = np.random.default_rng(0)
    sig = HermiteSignal(3, rng.uniform(-1, 1, (16, 3)), start=-5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_signal(sig, p1)
    back = read_signal(p1)
    assert back.level == 3 and back.start == -5
    assert np.array_equal(back.data, sig.data)
    write_signal(back, p2)
    assert p1.read_text() == p2.read_text()


def test_missing_metadata_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("k,f0,f1,f2\n0,1,0,0\n")
    with pytest.raises(SignalFormatError, match="line 1"):
        read_signal(p)


def test_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("# level=0 dim=3\nk,f0,f1\n0,1,0,0\n")
    with pytest.raises(SignalFormatError, match="line 2"):
        read_signal(p)


def test_ragged_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("# level=0 dim=3\nk,f0,f1,f2\n0,1,0\n")
    with pytest.raises(SignalFormatError, match="line 3"):
        read_signal(p)


def test_non_numeric_cell(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("# level=0 dim=3\nk,f0,f1,f2\n0,1,zzz,0\n")
    with pytest.raises(SignalFormatError, match="non-numeric"):
        read_signal(p)


def test_malformed_metadata(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("# level=x dim=3\nk,f0,f1,f2\n0,1,0,0\n")
    with pytest.raises(SignalFormatError, match="integer"):
        read_signal(p)


def test_untrusted_metadata_gives_short_errors(tmp_path):
    # the expected header has dim + 1 fields; a 40-byte file must not make 10^7 of them
    p = tmp_path / "bad.csv"
    p.write_text("# level=0 dim=10000000\nk,f0,f1,f2\n0,1,0,0\n")
    with pytest.raises(SignalFormatError, match="line 2") as info:
        read_signal(p)
    assert len(str(info.value)) < 200
    p.write_text("# level=0 dim=3\nk,f0,f1,f3\n0,1,0,0\n")
    with pytest.raises(SignalFormatError, match="line 2: expected header 'k,f0,...,f2', got 'k,f0,f1,f3'"):
        read_signal(p)
    p.write_text("# level=0 dim=0\nk,\n0,\n")
    with pytest.raises(SignalFormatError, match="line 1: dim must be >= 1, got 0"):
        read_signal(p)
    p.write_text("# " + "x" * 10**6 + "\nk,f0\n0,1\n")
    with pytest.raises(SignalFormatError, match="line 1: malformed metadata token 'xxx") as info:
        read_signal(p)
    assert len(str(info.value)) < 200


def _row_by_row(sig):
    """The CSV body as written one row at a time: the format's reference."""
    return "".join(
        f"{k}," + ",".join(repr(float(x)) for x in row) + "\n"
        for k, row in zip(sig.nodes(), sig.data)
    )


def test_write_matches_row_by_row_reference():
    # three blocks of rows, with the values that stress shortest repr
    rng = np.random.default_rng(5)
    data = rng.standard_normal((2 * 8192 + 5, 3)) * 10.0 ** rng.integers(-300, 300, (2 * 8192 + 5, 3))
    data[:6, 0] = [-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 0.1]
    sig = HermiteSignal(7, data, start=-4100)
    out = io.StringIO()
    write_signal(sig, out)
    assert out.getvalue() == "# level=7 dim=3\nk,f0,f1,f2\n" + _row_by_row(sig)


signals = st.tuples(st.integers(1, 40), st.integers(1, 4)).flatmap(
    lambda shape: st.builds(
        HermiteSignal,
        st.integers(0, 30),
        arrays(np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False)),
        st.integers(-(2**40), 2**40),
    )
)


@settings(max_examples=80, deadline=None)
@given(signals)
@example(HermiteSignal(0, [[-0.0, 5e-324, 1e308, -1e308]], start=3))
def test_roundtrip_bit_exact_property(tmp_path_factory, sig):
    p1 = tmp_path_factory.mktemp("rt") / "a.csv"
    write_signal(sig, p1)
    back = read_signal(p1)
    assert (back.level, back.start, back.data.shape) == (sig.level, sig.start, sig.data.shape)
    assert back.data.tobytes() == sig.data.tobytes()
    again = io.StringIO()
    write_signal(back, again)
    assert again.getvalue() == p1.read_text()


def _body_file(tmp_path, rows):
    p = tmp_path / "sig.csv"
    p.write_text("# level=0 dim=3\nk,f0,f1,f2\n" + "".join(r + "\n" for r in rows))
    return p


def test_ragged_row_deep_in_file(tmp_path):
    rows = [f"{k},1.0,0.0,0.0" for k in range(600)]
    rows[497] = "497,1.0,0.0"  # file line 500
    with pytest.raises(SignalFormatError, match="line 500: expected 4 cells, got 3"):
        read_signal(_body_file(tmp_path, rows))


def test_balanced_ragged_rows(tmp_path):
    # one row short and one long keep the cell count right; both are caught
    rows = ["0,1.0,0.0,0.0,1", "1,0.0,0.0"]
    with pytest.raises(SignalFormatError, match="line 3: expected 4 cells, got 5"):
        read_signal(_body_file(tmp_path, rows))


def test_non_numeric_node_cell(tmp_path):
    rows = ["0,1.0,0.0,0.0", "1.5,1.0,0.0,0.0"]
    with pytest.raises(SignalFormatError, match="line 4: non-numeric cell"):
        read_signal(_body_file(tmp_path, rows))


def test_node_index_out_of_range(tmp_path):
    with pytest.raises(SignalFormatError, match="line 3: node index out of range"):
        read_signal(_body_file(tmp_path, [f"{2**63},1.0,0.0,0.0"]))


def test_blank_lines_are_skipped(tmp_path):
    rows = ["-1,1.0,0.0,0.0", "", "  ", "0,2.0,0.5,0.25", ""]
    sig = read_signal(_body_file(tmp_path, rows))
    assert sig.start == -1
    assert np.array_equal(sig.data, [[1.0, 0.0, 0.0], [2.0, 0.5, 0.25]])


def test_non_consecutive_nodes(tmp_path):
    rows = ["0,1.0,0.0,0.0", "2,1.0,0.0,0.0"]
    with pytest.raises(SignalFormatError, match="consecutive"):
        read_signal(_body_file(tmp_path, rows))


def test_no_data_rows(tmp_path):
    with pytest.raises(SignalFormatError, match="no data rows"):
        read_signal(_body_file(tmp_path, ["", " "]))


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
def test_non_finite_cell(tmp_path, cell):
    rows = ["0,1.0,0.0,0.0", "", f"1,1.0,{cell},0.0"]
    with pytest.raises(SignalFormatError, match="line 5: non-finite value"):
        read_signal(_body_file(tmp_path, rows))


finite_doubles = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 30).flatmap(lambda n: arrays(np.float64, (n, 3), elements=finite_doubles)),
    st.integers(-(2**62), 2**62),
)
@example(np.array([[5e-324, -5e-324, -0.0], [1.7976931348623157e308, -1.7976931348623157e308, 0.0]]), 2**62)
@example(np.array([[2.2250738585072014e-308, 0.1, -1e-300]]), -(2**62))
def test_write_read_bit_exact_for_any_finite_double(tmp_path_factory, data, start):
    p = tmp_path_factory.mktemp("rt") / "a.csv"
    write_signal(HermiteSignal(5, data, start=start), p)
    back = read_signal(p)
    assert back.start == start and back.level == 5
    assert np.array_equal(back.data.view(np.int64), data.view(np.int64))


@pytest.mark.parametrize("column", [0, 2])
@pytest.mark.parametrize("cell", ["1_000", "٣", "１", "Ǿ"])
def test_underscore_and_non_ascii_digits_are_named(tmp_path, column, cell):
    # Python's int/float take these; numpy's reader does not, and reads "Ǿ" as node 462
    rows = [["0", "1.0", "0.0", "0.0"], ["1", "2.0", "0.5", "0.25"]]
    rows[1][column] = cell
    with pytest.raises(SignalFormatError, match="line 4: non-numeric cell"):
        read_signal(_body_file(tmp_path, [",".join(r) for r in rows]))


def test_non_consecutive_nodes_names_the_line(tmp_path):
    rows = ["5,1.0,0.0,0.0", "", "6,1.0,0.0,0.0", "8,1.0,0.0,0.0"]
    with pytest.raises(SignalFormatError, match="line 6: node indices must be consecutive"):
        read_signal(_body_file(tmp_path, rows))


#: Cells that stress the two number parsers: separators, non-ASCII digits
#: and spaces, control characters, signs, exponents, and non-finite words.
MUTATIONS = [
    "", " ", "1_000", "1_0", "٣", "１", "Ǿ", "1.5", "3.0", "1e5", "1E-5", ".5", "5.",
    "+1", "-0", "01", "0x10", "1.0j", "1d5", "-", "e5", "1 2", "5#", '"1"', "\x00", "\t5", "5\xa0",
    "　5", "\x1c5", "\x0c7", "\x0b3", "2 ", "nan", "NaN", "-nan", "inf", "+inf", "infinity",
    "-Infinity", "nan(1)", "1e400", "1e-400", "9223372036854775807", "9223372036854775808",
    "-9223372036854775808",
]


def _python_cell(cell, kind):
    """The value Python gives an ASCII decimal cell, or ``None``."""
    s = cell.strip()
    try:
        return kind(s) if s.isascii() and "_" not in s else None
    except ValueError:
        return None


def test_single_cell_mutations_are_read_or_named(tmp_path):
    # every mutation either reads back as Python parses the cell, or names its line
    base = [["0", "1.5", "-2.0", "3e-05"], ["1", "0.25", "1e+300", "-0.0"], ["2", "5e-324", "7.0", "8.0"]]
    for row, col, cell in itertools.product(range(3), range(4), MUTATIONS):
        rows = [list(r) for r in base]
        rows[row][col] = cell
        try:
            sig = read_signal(_body_file(tmp_path, [",".join(r) for r in rows]))
        except SignalFormatError as exc:
            assert re.search(r": line \d+: ", str(exc)), (row, col, cell, str(exc))
            continue
        if col == 0:
            assert _python_cell(cell, int) == row, (row, cell)
            continue
        want = _python_cell(cell, float)
        assert want is not None and math.isfinite(want), (row, col, cell)
        expect = np.array([[_python_cell(x, float) for x in r[1:]] for r in rows])
        assert np.array_equal(sig.data.view(np.int64), expect.view(np.int64)), (row, col, cell)
