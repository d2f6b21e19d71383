"""The CSV cell formatter and the readers: their values, bits and errors."""

import io
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qvisolve import csvio
from qvisolve.cli import main
from qvisolve.core import ValidationError
from qvisolve.csvio import (read_compare_csv, read_csv, read_flow_csv, read_sweep_csv,
                            read_trace_csv)

from test_golden import GOLDEN

SUBNORMAL = 5e-324
HALF_TINY = 2.2250738585072014e-308 / 2  # a subnormal with more digits


@pytest.mark.parametrize("value, text", [
    (None, ""),
    (math.inf, ""), (-math.inf, ""), (math.nan, ""),
    (np.float64(math.inf), ""), (np.float64(-math.inf), ""), (np.float64(math.nan), ""),
    (-0.0, "-0.0"), (np.float64(-0.0), "-0.0"), (0.0, "0.0"),
    (SUBNORMAL, "5e-324"), (-SUBNORMAL, "-5e-324"), (HALF_TINY, "1.1125369292536007e-308"),
    (np.float64(SUBNORMAL), "5e-324"), (np.float64(0.1), "0.1"),
    (True, "true"), (False, "false"),
    (3, "3.0"),
    ("ok", "ok"),
])
def test_cell_text(value, text):
    assert csvio._cell(value) == text


# ------------------------------------------------------------- sweep reader

def old_read_sweep_csv(source):
    """The row-by-row parser read_sweep_csv replaced, kept as the reference."""
    comments, header, lines, _ = read_csv(source)
    rows = []
    for line in lines:
        row = {}
        for name, value in zip(header, line.split(",")):
            if value == "":
                row[name] = None
            elif value in ("true", "false"):
                row[name] = value == "true"
            elif name == "status":
                row[name] = value
            else:
                try:
                    row[name] = float(value)
                except ValueError:
                    row[name] = value
        rows.append(row)
    return {"comments": comments, "columns": header or [], "rows": rows}


def assert_same_doc(got, want):
    """Equal comments and columns, and rows with the same keys in the same
    order, the same value types and, for floats, the same bits."""
    assert got["comments"] == want["comments"]
    assert got["columns"] == want["columns"]
    assert len(got["rows"]) == len(want["rows"])
    for row, ref in zip(got["rows"], want["rows"]):
        assert list(row) == list(ref)
        for name, value in ref.items():
            assert type(row[name]) is type(value), name
            if isinstance(value, float):
                assert struct.pack("<d", row[name]) == struct.pack("<d", value), name
            else:
                assert row[name] == value, name


def sweep_output(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


SWEEP_GOLDEN = [name for name, (argv, _) in GOLDEN.items() if argv[0] == "sweep"]

HAND_MADE = "\n".join([
    "# sweep: hand-made",
    "lambda,l,theta,ok_flag,note,status",
    "0.1,-0.0,nan,true,text,ok",
    "-0.0,0.0,inf,false,1e5,true",
    "0.1,-0.0,-inf,,abc,error: l must be >= 0; got -1.0",
    ",5e-324,1.5,true,nan,false",
    "0.1,0.0,-nan,false,,error: l must be >= 0; got -1.0",
    "",
    "1e308,1E-3, 2.5,TRUE,x y,numeric_failure",
]) + "\n"


@pytest.mark.parametrize("name", SWEEP_GOLDEN)
def test_sweep_reader_matches_row_by_row_parser(capsys, name):
    text = sweep_output(capsys, GOLDEN[name][0])
    assert_same_doc(read_sweep_csv(io.StringIO(text)), old_read_sweep_csv(io.StringIO(text)))


def test_sweep_reader_hand_made_file():
    doc = read_sweep_csv(io.StringIO(HAND_MADE))
    assert_same_doc(doc, old_read_sweep_csv(io.StringIO(HAND_MADE)))
    rows = doc["rows"]
    assert math.copysign(1.0, rows[0]["l"]) == -1.0 and math.isnan(rows[0]["theta"])
    assert rows[1]["status"] is True and rows[3]["status"] is False  # flags in any column
    assert rows[2]["ok_flag"] is None and rows[2]["note"] == "abc"
    assert rows[1]["note"] == 1e5 and rows[3]["note"] != rows[3]["note"]  # text parses
    assert rows[2]["status"] == "error: l must be >= 0; got -1.0"
    assert rows[5]["l"] == 1e-3 and rows[5]["theta"] == 2.5 and rows[5]["ok_flag"] == "TRUE"


def test_sweep_reader_parses_each_distinct_text_once(capsys, monkeypatch):
    text = sweep_output(capsys, GOLDEN["sweep-benchmark-size"][0])
    calls = []
    parse = csvio._sweep_cell

    def counting(name, cell):
        calls.append((name, cell))
        return parse(name, cell)

    monkeypatch.setattr(csvio, "_sweep_cell", counting)
    doc = read_sweep_csv(io.StringIO(text))
    assert len(doc["rows"]) == 4000
    _, header, lines, _ = read_csv(io.StringIO(text))
    distinct = [set(column) for column in zip(*(line.split(",") for line in lines))]
    assert len(calls) == len(set(calls)) == sum(map(len, distinct))
    assert len(calls) < 4000 * len(header) / 10


# ------------------------------------------------------------- malformed rows

TRACE = "# variant: tseng\nk,residual,dist_to_solution\n0,1.0,2.0\n1,0.5,\n"
COMPARE = "# lambda: 0.1\nvariant,k,residual,dist_to_solution\ntseng,0,1.0,2.0\n"
FLOW = "# status: completed\nt,V,envelope\n0.0,1.0,1.0\n0.1,0.9,\n"
SWEEP = "# cells: 2\nlambda,l,status\n0.1,0.2,ok\n0.2,0.2,ok\n"


@pytest.mark.parametrize("reader, text, line", [
    (read_sweep_csv, SWEEP + "0.1,0.2\n", 5),
    (read_sweep_csv, SWEEP.replace("0.2,0.2,ok", "0.2,0.2,ok,extra"), 4),
    (read_sweep_csv, "lambda,l,status\n\n0.1\n", 3),
    (read_trace_csv, TRACE + "2,0.25\n", 5),
    (read_trace_csv, TRACE.replace("1,0.5,", "1,0.5,,"), 4),
    (read_compare_csv, COMPARE + "tseng,1,0.5\n", 4),
    (read_compare_csv, COMPARE + "tseng\n", 4),
    (read_compare_csv, COMPARE + "tseng,1,0.5,0.1,0.2\n", 4),
    (read_flow_csv, FLOW + "0.2,0.8\n", 5),
    (read_flow_csv, FLOW.replace("0.0,1.0,1.0", "0.0,1.0,1.0,1.0"), 3),
])
def test_reader_rejects_row_of_another_width(reader, text, line):
    with pytest.raises(ValidationError, match=f"^line {line}: .* cells where the header has"):
        reader(io.StringIO(text))


@pytest.mark.parametrize("reader, text, line", [
    (read_trace_csv, TRACE + "2,abc,0.1\n", 5),
    (read_trace_csv, TRACE.replace("0,1.0", "zero,1.0"), 3),
    (read_compare_csv, COMPARE + "tseng,1,0.5,x\n", 4),
    (read_flow_csv, "# status: completed\n\nt,V,envelope\n0.0,1.0,1.0\n0.1,true,\n", 5),
])
def test_reader_rejects_cell_that_is_not_a_number(reader, text, line):
    with pytest.raises(ValidationError, match=f"^line {line}: a cell is not a number"):
        reader(io.StringIO(text))


def test_flow_reader_rejects_a_short_header():
    with pytest.raises(ValidationError, match="flow header 't,V' lacks t,V,envelope"):
        read_flow_csv(io.StringIO("t,V\n0.0,1.0\n"))



@pytest.mark.parametrize("reader, text, line", [
    (read_trace_csv, TRACE + ",0.25,0.1\n", 5),
    (read_trace_csv, TRACE + "1e300,0.25,0.1\n", 5),
    (read_trace_csv, TRACE.replace("1,0.5,", "1.5,0.5,"), 4),
    (read_trace_csv, TRACE.replace("0,1.0", "-1,1.0"), 3),
    (read_trace_csv, TRACE + "inf,0.25,0.1\n", 5),
    (read_compare_csv, COMPARE + "tseng,,0.5,0.1\n", 4),
    (read_compare_csv, COMPARE + "tseng,1e300,0.5,0.1\n", 4),
    (read_compare_csv, COMPARE + "tseng,2.5,0.5,0.1\n", 4),
])
def test_reader_rejects_k_that_is_not_a_count(reader, text, line):
    with pytest.raises(ValidationError, match=f"^line {line}: k must be a non-negative integer"):
        reader(io.StringIO(text))


@pytest.mark.parametrize("reader, text, key", [
    (read_trace_csv, "# lambda: abc\n" + TRACE, "lambda"),
    (read_flow_csv, "# Lambda: abc\n" + FLOW, "Lambda"),
])
def test_reader_rejects_metadata_that_is_not_a_number(reader, text, key):
    with pytest.raises(ValidationError, match=f"^{key}: not a number: 'abc'"):
        reader(io.StringIO(text))


@pytest.mark.parametrize("reader, text", [
    (read_trace_csv, TRACE), (read_compare_csv, COMPARE),
    (read_flow_csv, FLOW), (read_sweep_csv, SWEEP),
])
def test_reader_rejects_a_file_that_is_not_utf8(tmp_path, reader, text):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode("utf-8") + b"# \xff\n")
    with pytest.raises(ValidationError, match="^CSV is not UTF-8 text"):
        reader(path)


# ---------------------------------------------------------- generated text

READERS = (read_trace_csv, read_compare_csv, read_flow_csv, read_sweep_csv)
# cells the writers print, and text they never print: junk, numbers float()
# reads in unusual forms, and out-of-range or non-finite values
_cells = st.one_of(
    st.floats().map(repr),
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.sampled_from(["", "true", "false", "tseng", "extragradient", "nan", "-inf", "1e999",
                     "-0", "1_0", " 1 ", "0x1", "١", "9" * 400, "status", "error: x"]),
    st.text(max_size=6),
)
_keys = st.sampled_from(["lambda", "Lambda", "status", "variant", "certificate_warning",
                         "cells", "sweep", "tseng", ""])
_lines = st.one_of(
    st.lists(_cells, max_size=6).map(",".join),
    st.tuples(_keys, _cells).map(lambda kv: f"# {kv[0]}: {kv[1]}"),
    st.sampled_from(["# ", "#", ",", ",,,", "k,residual,dist_to_solution", "t,V,envelope,x0",
                     "variant,k,residual,dist_to_solution", "lambda,l,status"]),
)
# a document: a well-formed table, generated lines spliced into it, and the
# whole text cut at some point (a truncated last line)
_documents = st.tuples(st.sampled_from([TRACE, COMPARE, FLOW, SWEEP, ""]),
                       st.lists(st.tuples(st.integers(0, 8), _lines), max_size=6),
                       st.integers(0, 400)).map(
    lambda doc: "\n".join(_splice(doc[0].split("\n"), doc[1]))[:doc[2]])


def _splice(lines, inserts):
    for at, line in inserts:
        lines.insert(min(at, len(lines)), line)
    return lines


@given(_documents)
def test_readers_return_or_raise_a_validation_error(text):
    # whatever the text, a reader gives a result or a ValidationError: no
    # other exception and no RuntimeWarning (the suite turns those into errors)
    for reader in READERS:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                reader(io.StringIO(text))
            except ValidationError:
                pass
