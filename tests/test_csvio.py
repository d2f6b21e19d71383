"""The CSV cell formatter and the readers: their values, bits and errors."""

import io
import math
import struct
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qvisolve import cli, csvio
from qvisolve.cli import main
from qvisolve.core import ValidationError
from qvisolve.csvio import read_compare_csv, read_flow_csv, read_sweep_csv, read_trace_csv

from test_golden import GOLDEN, ITERATE_CASES, suite_problem

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

def whole_text_split(text):
    """The whole-text splitter the streaming read_csv replaced, kept as the
    reference: (comments, header, rows, numbers) of the text's lines, each
    ended by LF."""
    comments, header, rows, numbers = [], None, [], []
    for number, line in enumerate(text.split("\n"), 1):
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line)
            numbers.append(number)
    return comments, header, rows, numbers


def old_read_sweep_csv(source):
    """The row-by-row parser read_sweep_csv replaced, kept as the reference."""
    comments, header, lines, _ = whole_text_split(source.read())
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
    """Equal reader results: dicts with the same keys in the same order, lists
    of the same length, and values of the same types, floats and arrays with
    the same bits."""
    assert type(got) is type(want)
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key, value in want.items():
            assert_same_doc(got[key], value)
    elif isinstance(want, list):
        assert len(got) == len(want)
        for item, ref in zip(got, want):
            assert_same_doc(item, ref)
    elif isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    elif isinstance(want, float):
        assert struct.pack("<d", got) == struct.pack("<d", want)
    else:
        assert got == want


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
    _, header, lines, _ = whole_text_split(text)
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
    with pytest.raises(ValidationError, match="^flow header 't,V' is not t,V,envelope"):
        read_flow_csv(io.StringIO("t,V\n0.0,1.0\n"))


@pytest.mark.parametrize("reader, header, table", [
    (read_trace_csv, "k,residual", "trace"),
    (read_trace_csv, "k,residual,dist_to_solution,x0", "trace"),
    (read_compare_csv, "k,residual,dist_to_solution", "compare"),
    (read_compare_csv, "variant,k,residual,dist", "compare"),
    (read_flow_csv, "t,envelope,V", "flow"),
    (read_flow_csv, "t,V,envelope,x1", "flow"),
    (read_flow_csv, "t,V,envelope,x0,x0", "flow"),
    (read_sweep_csv, "a,a,status", "sweep"),
    (read_sweep_csv, "lambda,l", "sweep"),
    (read_sweep_csv, "status,lambda", "sweep"),
])
def test_reader_rejects_a_header_that_is_not_its_tables(reader, header, table):
    with pytest.raises(ValidationError, match=f"^{table} header {header!r} is not "):
        reader(io.StringIO(f"# c\n{header}\n"))


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


# ------------------------------------------------------------- block writer

SMALL_BLOCK = 3


def whole_text_write_lines(out, lines):
    """The whole-text writer the block writer replaced, kept as the reference."""
    text = "\n".join(lines) + "\n"
    if isinstance(out, (str, Path)):
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        out.write(text)


@contextmanager
def whole_text_writes():
    """Every writer, and cmd_certify's JSON, through the whole-text writer."""
    with mock.patch.object(csvio, "write_lines", whole_text_write_lines), \
            mock.patch.object(cli, "write_lines", whole_text_write_lines):
        yield


def block_and_whole_text(write):
    """What write(out) puts in a StringIO through the block writer, with
    SMALL_BLOCK lines a block, and through the whole-text writer."""
    with mock.patch.object(csvio, "BLOCK", SMALL_BLOCK):
        blocks = io.StringIO()
        write(blocks)
    with whole_text_writes():
        whole = io.StringIO()
        write(whole)
    return blocks.getvalue(), whole.getvalue()


# 0, 1, B - 1, B and B + 1 rows, and one more block
_row_counts = st.sampled_from([0, 1, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1,
                               2 * SMALL_BLOCK + 1])
_values = st.floats() | st.sampled_from([-0.0, 5e-324, 0.1])
_optional = st.none() | _values


def _series(n, optional=False):
    return (st.none() if optional else st.nothing()) | st.lists(
        _values, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=float))


@st.composite
def _traces(draw, variant="tseng"):
    records = [SimpleNamespace(k=k, residual=draw(_values), dist_to_solution=draw(_optional))
               for k in range(draw(_row_counts))]
    return SimpleNamespace(records=records, variant=variant, lam=draw(_values),
                           status=draw(st.sampled_from(["converged", "numeric_failure"])),
                           certificate_warning=draw(st.booleans()))


@st.composite
def _flows(draw):
    n = draw(_row_counts)
    keep_states = draw(st.booleans())
    dim = draw(st.integers(1, 3))
    x = draw(st.lists(_values, min_size=(n if keep_states else 1) * dim,
                      max_size=(n if keep_states else 1) * dim))
    return SimpleNamespace(t=draw(_series(n)), V=draw(_series(n, True)),
                           envelope=draw(_series(n, True)), Lambda=draw(_values),
                           status="completed", keep_states=keep_states,
                           x=np.array(x, dtype=float).reshape(-1, dim))


@st.composite
def _sweeps(draw):
    n = draw(_row_counts)
    axes = {"lambda": draw(st.lists(_values, min_size=n, max_size=n)), "l": [0.1],
            "beta": draw(st.sampled_from([[None], [0.2]]))}
    ok = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    valid = np.flatnonzero(ok)
    table = {name: np.array(draw(st.lists(st.booleans(), min_size=len(valid),
                                          max_size=len(valid))), dtype=bool)
             for name in ("discrete_ok", "continuous_ok")}
    table["gamma"] = np.array(draw(st.lists(_values, min_size=len(valid),
                                            max_size=len(valid))), dtype=float)
    status = ["ok" if v else "error: l must be >= 0; got -1.0" for v in ok.tolist()]
    return draw(_values), draw(_values), axes, table, valid, status


_writes = st.one_of(
    _traces().map(lambda trace: lambda out: csvio.trace_to_csv(trace, out)),
    st.tuples(_traces("tseng"), _traces("extragradient")).map(
        lambda traces: lambda out: csvio.compare_to_csv(traces, out)),
    _flows().map(lambda flow: lambda out: csvio.flow_to_csv(flow, out)),
    _sweeps().map(lambda args: lambda out: csvio.sweep_to_csv(out, *args)),
    st.dictionaries(st.sampled_from(["gamma", "theta", "ok"]), _optional | st.booleans()).map(
        lambda doc: lambda out: csvio.certificate_to_csv(doc, out)),
)


@given(_writes)
def test_block_writer_writes_the_whole_text_bytes(write):
    blocks, whole = block_and_whole_text(write)
    assert blocks == whole


def test_a_header_only_table_keeps_its_bytes():
    trace = SimpleNamespace(records=[], variant="tseng", lam=0.1, status="numeric_failure",
                            certificate_warning=False)
    blocks, whole = block_and_whole_text(lambda out: csvio.trace_to_csv(trace, out))
    assert blocks == whole == ("# variant: tseng\n# lambda: 0.1\n# status: numeric_failure\n"
                               "# certificate_warning: false\nk,residual,dist_to_solution\n")


def golden_argv(monkeypatch, name):
    """The argv of a command of tests/test_golden.py, GOLDEN or ITERATE_CASES."""
    if name in ITERATE_CASES:  # --problem i is the i-th default-suite problem
        monkeypatch.setattr(cli, "load_problem", suite_problem)
        return ITERATE_CASES[name]
    return GOLDEN[name][0]


@pytest.mark.parametrize("name", [*GOLDEN, *ITERATE_CASES])
def test_block_writer_writes_the_golden_commands_bytes(tmp_path, capsys, monkeypatch, name):
    argv = golden_argv(monkeypatch, name)
    with mock.patch.object(csvio, "BLOCK", SMALL_BLOCK):  # to a path
        assert main([*argv, "-o", str(tmp_path / "out")]) == 0
    with whole_text_writes():  # to stdout
        assert main(argv) == 0
    assert (tmp_path / "out").read_bytes() == capsys.readouterr().out.encode("utf-8")


# ------------------------------------------------------------- streaming reader

SMALL_CHUNK = 7
# LF, CRLF and CR, and the other characters at which str.splitlines() breaks a
# line, which are ordinary characters to a reader
BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_texts = st.lists(st.sampled_from(BREAKS) | st.sampled_from(["a", "1.5", ",", "#", " ", "é"]),
                  max_size=40).map("".join)


def split_by_read_csv(source):
    """read_csv's (comments, header, rows, numbers), in whole_text_split's form."""
    with csvio.read_csv(source) as (comments, header, rows):
        pairs = list(rows)
    return (comments, header, [row for _, row in pairs], [number for number, _ in pairs])


def universal_newlines(text):
    """text as a file opened with universal newlines reads: CRLF and CR as LF."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def assert_path_reads_as_universal_newlines(text, path):
    path.write_bytes(text.encode("utf-8"))
    want = whole_text_split(universal_newlines(text))
    assert split_by_read_csv(path) == want
    assert split_by_read_csv(str(path)) == want


@given(_texts, st.integers(1, 5) | st.just(csvio.CHUNK))
def test_reader_lines_and_numbers_end_at_lf(text, chunk):
    # the text layer of a path turns CRLF and CR into LF, a StringIO keeps
    # them: either way, and wherever a chunk of the read ends, a line ends at
    # LF, and the other breaks of str.splitlines() (and a stream's CR) are
    # ordinary characters
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(csvio, "CHUNK", chunk):
        assert_path_reads_as_universal_newlines(text, Path(tmp) / "text.csv")
        assert split_by_read_csv(io.StringIO(text)) == whole_text_split(text)


@pytest.mark.parametrize("at", [8190, 8191, 8192, 8193, 16383])
def test_reader_joins_a_crlf_that_straddles_the_read_buffer(tmp_path, at):
    # TextIOWrapper decodes 8192-byte chunks: put the \r of a \r\n at the end
    # of one, its \n at the start of the next
    head = "# c\nt,V,envelope\n"
    text = head + "9" * (at - len(head)) + "\r\n1,2,3\r\n\r\n4,5,6"
    assert_path_reads_as_universal_newlines(text, tmp_path / "text.csv")
    assert split_by_read_csv(tmp_path / "text.csv")[3] == [3, 4, 6]


# the table each command writes, and its reader
TABLES = {"solve": ("trace", read_trace_csv), "compare": ("compare", read_compare_csv),
          "flow": ("flow", read_flow_csv), "sweep": ("sweep", read_sweep_csv)}


@pytest.mark.parametrize("name", [*GOLDEN, *ITERATE_CASES])
def test_crlf_and_cr_copies_of_a_golden_output_read_as_its_lf_form(tmp_path, capsys,
                                                                     monkeypatch, name):
    argv = golden_argv(monkeypatch, name)
    assert main(argv) == 0
    lines = capsys.readouterr().out.split("\n")
    # a row of one cell, halfway down the file but after the header
    at = max(len(lines) // 2, 1 + next(i for i, line in enumerate(lines)
                                       if line and not line.startswith("#")))
    bad = [*lines[:at], "x", *lines[at:]]
    for end_name, end in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        (tmp_path / f"{end_name}.csv").write_bytes(end.join(lines).encode("utf-8"))
        (tmp_path / f"bad-{end_name}.csv").write_bytes(end.join(bad).encode("utf-8"))
    want = split_by_read_csv(io.StringIO("\n".join(lines)))
    assert split_by_read_csv(tmp_path / "crlf.csv") == want
    assert split_by_read_csv(tmp_path / "cr.csv") == want
    if argv[0] not in TABLES:  # a certificate
        return
    reader = TABLES[argv[0]][1]
    want = reader(tmp_path / "lf.csv")
    assert_same_doc(reader(tmp_path / "crlf.csv"), want)
    assert_same_doc(reader(tmp_path / "cr.csv"), want)
    for end_name in ("lf", "crlf", "cr"):
        with pytest.raises(ValidationError, match=f"^line {at + 1}: 1 cells where"):
            reader(tmp_path / f"bad-{end_name}.csv")


@pytest.mark.parametrize("name", ["solve-0-tseng", "compare-0", "flow-0-euler",
                                  "flow-0-euler-coords", "sweep-beta"])
def test_reader_reads_its_own_table_and_rejects_the_others(capsys, monkeypatch, name):
    argv = golden_argv(monkeypatch, name)
    assert main(argv) == 0
    text = capsys.readouterr().out
    for command, (table, reader) in TABLES.items():
        if command == argv[0]:
            reader(io.StringIO(text))
        else:
            with pytest.raises(ValidationError, match=f"^{table} header '"):
                reader(io.StringIO(text))


@pytest.fixture
def opened(monkeypatch):
    """The files csvio opens from here on."""
    files = []

    def recording_open(*args, **kwargs):
        files.append(open(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(csvio, "open", recording_open, raising=False)
    return files


def many_rows(text, count):
    """text with its last data row repeated to give count rows in all."""
    lines = text.splitlines()
    return "\n".join(lines + lines[-1:] * (count - 1)) + "\n"


@pytest.mark.parametrize("reader, text, bad, line", [
    (read_trace_csv, many_rows(TRACE, 10), "2,0.25", 11),
    (read_trace_csv, many_rows(TRACE, 10), "2,x,0.1", 11),
    # a bad k is reported at its first line, here before a second further on
    (read_trace_csv, many_rows(TRACE, 10) + "2.5,0.1,0.1\n", "1.5,0.25,0.1", 11),
    (read_compare_csv, many_rows(COMPARE, 10), "tseng,1,0.5", 11),
    (read_compare_csv, many_rows(COMPARE, 10) + "tseng,2.5,0.1,0.1\n", "tseng,-1,0.5,0.1", 11),
    (read_flow_csv, many_rows(FLOW, 10), "0.2,0.8", 11),
    (read_flow_csv, many_rows(FLOW, 10), "0.2,0.8,x", 11),
    (read_sweep_csv, many_rows(SWEEP, 10), "0.1,0.2", 11),
])
def test_reader_names_the_bad_line_past_several_chunks(tmp_path, opened, reader, text, bad, line):
    # the bad row is many chunks of SMALL_CHUNK characters into the file; read
    # from a path, the file is closed when the reader raises
    lines = text.splitlines()
    lines.insert(line - 1, bad)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with mock.patch.object(csvio, "CHUNK", SMALL_CHUNK):
        with pytest.raises(ValidationError, match=f"^line {line}: ") as raised:
            reader(path)
        assert len(opened) == 1 and opened[0].closed  # while the traceback lives
        del raised
        with pytest.raises(ValidationError, match=f"^line {line}: "):
            reader(io.StringIO(path.read_text(encoding="utf-8")))


@pytest.mark.parametrize("reader, text", [
    (read_trace_csv, TRACE), (read_compare_csv, COMPARE),
    (read_flow_csv, FLOW), (read_sweep_csv, SWEEP),
])
def test_reader_closes_a_file_that_is_not_utf8(tmp_path, opened, reader, text):
    path = tmp_path / "bad.csv"
    path.write_bytes(many_rows(text, 2000).encode("utf-8") + b"# \xff\n")  # past a chunk
    with pytest.raises(ValidationError, match="^CSV is not UTF-8 text") as raised:
        reader(path)
    assert len(opened) == 1 and opened[0].closed  # while the traceback lives
    del raised


# rows enough to put what follows them past the first chunks of a read
FAR = 20_000


@pytest.mark.parametrize("reader, text, error", [
    # a trace or compare CSV is read whole before it is parsed: a bad lambda
    # comment wins over an earlier bad row, as does text that is not UTF-8
    (read_trace_csv, TRACE + "2,x,0.1\n# lambda: abc\n", "^lambda: not a number"),
    (read_trace_csv, TRACE + "2,x,0.1\n" + "1,0.5,\n" * FAR + "# \udcff\n",
     "^CSV is not UTF-8 text"),
    (read_compare_csv, COMPARE + "tseng,x,0.5,0.1\ntseng,1\n", "^line 5: 2 cells"),
    # flow and sweep rows are checked as they are read: before the comments
    # and before the text further on
    (read_flow_csv, FLOW + "0.2,x,0.1\n# Lambda: abc\n", "^line 5: a cell is not a number"),
    (read_flow_csv, FLOW + "0.2,x,0.1\n" + "0.1,0.9,\n" * FAR + "# \udcff\n",
     "^line 5: a cell is not a number"),
    (read_sweep_csv, SWEEP + "0.1\n" + "0.2,0.2,ok\n" * FAR + "# \udcff\n", "^line 5: 1 cells"),
])
def test_reader_reports_the_first_of_several_faults(tmp_path, reader, text, error):
    path = tmp_path / "faults.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))  # \udcff: the byte 0xff
    with pytest.raises(ValidationError, match=error):
        reader(path)
