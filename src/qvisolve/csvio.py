"""The CSV format of every output: cell formatters, one writer per output
(trace, compare, flow, sweep, certificate) and one reader per command CSV.

A table is LF-terminated UTF-8: '# ' comment lines with the run metadata, a
header row, then comma-separated rows; floats print in shortest round-trip form.
A reader ends a line at LF (a path is opened with universal newlines, so a
CRLF or CR file reads as its LF form) and rejects a header that is not its
table's. Both directions stream: a writer joins and writes BLOCK lines at a
time, and a reader splits CHUNK characters into lines at a time, so neither
holds a file's whole text.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from .core import ValidationError

Sink = Union[str, Path, IO[str]]

# the fixed headers of the trace, compare and flow tables (a flow's x0, x1,
# ... follow its three)
TRACE_HEADER = ["k", "residual", "dist_to_solution"]
COMPARE_HEADER = ["variant", *TRACE_HEADER]
FLOW_HEADER = ["t", "V", "envelope"]

# lines a writer joins and writes at once
BLOCK = 256
# characters a reader reads at once
CHUNK = 1 << 16


def format_float(value) -> str:
    """Shortest round-trip decimal form."""
    return repr(float(value))


def _cell(v) -> str:
    """One CSV cell: empty for None and non-finite floats, lower-case flags."""
    if v is None or (isinstance(v, float) and not math.isfinite(v)):
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (int, float)):
        return format_float(v)
    return str(v)


def _column(values: np.ndarray) -> List[str]:
    """_cell of every element of a float or bool array, called once per distinct
    bit pattern (a memo keyed by value would print -0.0 as 0.0 and miss NaNs)."""
    bits, inverse = np.unique(values.view(np.uint8 if values.dtype == bool else np.uint64),
                              return_inverse=True)
    cells = np.array([_cell(v) for v in bits.view(values.dtype).tolist()], dtype=object)
    return cells[inverse].tolist()


def write_lines(out: Sink, lines: Iterable[str]) -> None:
    """Write LF-terminated UTF-8 lines to a path or file object, one write of
    BLOCK lines at a time (the path is opened before the first line is made)."""
    if isinstance(out, (str, Path)):
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            write_lines(fh, lines)
        return
    lines = iter(lines)
    while block := list(itertools.islice(lines, BLOCK)):
        block.append("")  # the block's last LF
        out.write("\n".join(block))


def _write_table(out: Sink, comments: List[str], header: Iterable[str], rows: Iterable[str]):
    """'# ' comment lines, the header, then rows already joined with commas."""
    write_lines(out, itertools.chain((f"# {c}" for c in comments), [",".join(header)], rows))


def _trace_rows(trace, prefix: str = "") -> Iterator[str]:
    """'k,residual,dist_to_solution' of every record, each after prefix."""
    return (f"{prefix}{r.k},{format_float(r.residual)},"
            f"{'' if r.dist_to_solution is None else format_float(r.dist_to_solution)}"
            for r in trace.records)


def trace_to_csv(trace, out: Sink) -> None:
    _write_table(out, [f"variant: {trace.variant}", f"lambda: {format_float(trace.lam)}",
                       f"status: {trace.status}",
                       f"certificate_warning: {_cell(trace.certificate_warning)}"],
                 TRACE_HEADER, _trace_rows(trace))


def compare_to_csv(traces, out: Sink) -> None:
    """Traces at one lambda in one table, their rows after a variant column."""
    comments = [f"lambda: {format_float(traces[0].lam)}"]
    comments += [f"{t.variant}: status={t.status}, "
                 f"certificate_warning={_cell(t.certificate_warning)}" for t in traces]
    rows = itertools.chain.from_iterable(_trace_rows(t, f"{t.variant},") for t in traces)
    _write_table(out, comments, COMPARE_HEADER, rows)


def flow_to_csv(trace, out: Sink) -> None:
    """Columns t,V,envelope (empty without a known solution; an overflowed
    envelope prints as inf), then x0, x1, ... when the flow kept its states."""
    header = FLOW_HEADER
    series = [[""] * len(trace.t) if c is None else [format_float(v) for v in c.tolist()]
              for c in (trace.t, trace.V, trace.envelope)]
    rows = map(",".join, zip(*series))
    if trace.keep_states:  # one state at a time, as the rows are joined
        header = [*header, *(f"x{i}" for i in range(trace.x.shape[1]))]
        rows = (",".join([row, *map(format_float, x.tolist())]) for row, x in zip(rows, trace.x))
    _write_table(out, [f"status: {trace.status}", f"Lambda: {format_float(trace.Lambda)}"],
                 header, rows)


def error_status(error: Union[Exception, str]) -> str:
    """A failed sweep cell's status, from its error or the error's text; commas
    become ';' so the row stays splittable."""
    return f"error: {error}".replace(",", ";")


def sweep_to_csv(out: Sink, L: float, rho: float, axes: dict, table: dict, valid: np.ndarray,
                 status: List[str]) -> None:
    """One row per cell of the product of the axes (name -> grid): its axis
    values, each table column (name -> array over the valid cells, whose flat
    indices are valid; empty elsewhere) and its status, under a summary of the
    condition counts."""
    total = len(status)
    # each axis value is formatted once, each table column once per distinct
    # value; the axis cells of a row are joined as the row is
    columns = [map(",".join, itertools.product(*([_cell(v) for v in grid]
                                                 for grid in axes.values())))]
    for values in table.values():
        column = np.full(total, "", dtype=object)
        column[valid] = _column(values)
        columns.append(column.tolist())
    columns.append(status)
    n_discrete = int(np.count_nonzero(table["discrete_ok"]))
    n_continuous = int(np.count_nonzero(table["continuous_ok"]))
    comments = [f"sweep: L={format_float(L)}, rho={format_float(rho)}", f"cells: {total}",
                f"discrete_ok: {n_discrete}/{total}", f"continuous_ok: {n_continuous}/{total}"]
    if n_discrete == 0 and n_continuous == 0 and not any(s.startswith("error") for s in status):
        comments.append("sufficient conditions (continuous and discrete) unmet at every grid point")
    _write_table(out, comments, [*axes, *table, "status"], map(",".join, zip(*columns)))


def certificate_to_csv(doc: dict, out: Sink) -> None:
    """A Certificate.to_dict() as a header and one row; null values are empty."""
    _write_table(out, [], doc, [",".join(_cell(v) for v in doc.values())])


@contextmanager
def read_csv(source: Sink):
    """Read a CSV written by this package as its lines arrive: yields
    (comments, header, rows). header is the first line that is neither empty
    nor a comment, split on commas (None when absent); rows iterates over every
    later such line as (its 1-based line number in the file, the line unsplit);
    comments gets the stripped text of each '#' line as the reading passes it,
    so it is complete once rows is. A line ends at LF: a path is opened with
    universal newlines, so CRLF and CR end its lines too, while the text of an
    open stream is split at LF only. Text that is not UTF-8 is a
    ValidationError. A path is opened here and closed on leaving the block,
    also when the block raises."""
    comments: List[str] = []
    with (open(source, encoding="utf-8") if isinstance(source, (str, Path))
          else nullcontext(source)) as stream:
        rows = _lines(stream, comments)
        first = next(rows, None)
        yield comments, None if first is None else first[1].split(","), rows


def _lines(stream: IO[str], comments: List[str]) -> Iterator[Tuple[int, str]]:
    """(number, line) of each line of stream that is neither empty nor a
    comment, appending the comments' text to comments as they pass. The text
    is read CHUNK characters at a time and split at LF."""
    number, rest = 0, ""
    try:
        while True:
            chunk = stream.read(CHUNK)
            lines = (rest + chunk).split("\n")
            rest = lines.pop() if chunk else ""  # the last line may go on in the next chunk
            for number, line in enumerate(lines, number + 1):
                if line.startswith("#"):
                    comments.append(line[1:].strip())
                elif line:
                    yield number, line
            if not chunk:
                return
    except UnicodeDecodeError as exc:
        raise ValidationError(f"CSV is not UTF-8 text: {exc}") from None


def comment_meta(comments: List[str]) -> dict:
    """'key: value' comment lines as a dict (a later key wins)."""
    return {k.strip(): v.strip() for k, _, v in (c.partition(":") for c in comments)}


def _meta_number(meta: dict, key: str) -> Optional[float]:
    """meta[key] as a float, None when absent; other text is a ValidationError
    naming the key."""
    if key not in meta:
        return None
    try:
        return float(meta[key])
    except ValueError:
        raise ValidationError(f"{key}: not a number: {meta[key]!r}") from None


def _width_error(number: int, cells: int, width: int) -> ValidationError:
    return ValidationError(f"line {number}: {cells} cells where the header has {width}")


def _header_error(table: str, header: List[str], want: str) -> ValidationError:
    return ValidationError(f"{table} header {','.join(header)!r} is not {want}")


def _floats(rows: Iterable[Tuple[int, str]], width: int) -> np.ndarray:
    """(number, row) pairs of `width` numeric cells as a (rows, width) array;
    an empty cell is NaN. A row of another width, or with a cell that is not a
    number, is a ValidationError naming its line."""
    data = []
    for number, row in rows:
        cells = row.split(",")
        if len(cells) != width:
            raise _width_error(number, len(cells), width)
        try:
            data.append([np.nan if c == "" else float(c) for c in cells])
        except ValueError:
            raise ValidationError(f"line {number}: a cell is not a number: {row!r}") from None
    return np.array(data, dtype=float).reshape(len(data), width)


def _trace_columns(rows: List[Tuple[int, str]]) -> dict:
    """'k,residual,dist_to_solution' rows as one array per column. A k that
    is not a non-negative integer is a ValidationError naming its line."""
    data = _floats(rows, len(TRACE_HEADER))
    k = data[:, 0]
    bad = np.flatnonzero(~((k >= 0) & (k < 2.0 ** 63) & (k == np.trunc(k))))  # NaN too
    if len(bad):
        number, row = rows[bad[0]]
        raise ValidationError(f"line {number}: k must be a non-negative integer, "
                              f"got {row.partition(',')[0]!r}")
    return {"k": k.astype(int), "residual": data[:, 1], "dist_to_solution": data[:, 2]}


def read_trace_csv(source: Sink) -> dict:
    """Parse a trace CSV back into plain arrays plus its comment metadata."""
    with read_csv(source) as (comments, header, rows):
        if header not in (None, TRACE_HEADER):
            raise _header_error("trace", header, ",".join(TRACE_HEADER))
        rows = list(rows)
    meta = comment_meta(comments)
    return {"variant": meta.get("variant"),
            "lambda": _meta_number(meta, "lambda"),
            "status": meta.get("status"),
            "certificate_warning": meta.get("certificate_warning") == "true",
            **_trace_columns(rows)}


def read_compare_csv(source: Sink) -> dict:
    """Parse a compare CSV into comment metadata plus trace columns per variant."""
    with read_csv(source) as (comments, header, rows):
        if header not in (None, COMPARE_HEADER):
            raise _header_error("compare", header, ",".join(COMPARE_HEADER))
        rows = list(rows)
    groups: dict = {}
    for number, row in rows:
        if row.count(",") != len(TRACE_HEADER):  # the variant, then a trace row
            raise _width_error(number, row.count(",") + 1, len(TRACE_HEADER) + 1)
        variant, _, trace_row = row.partition(",")
        groups.setdefault(variant, []).append((number, trace_row))
    return {"meta": comment_meta(comments),
            "variants": {variant: _trace_columns(group) for variant, group in groups.items()}}


def read_flow_csv(source: Sink) -> dict:
    """Parse a flow CSV into t, V and envelope arrays (and x, the coordinates,
    when present) plus its status and Lambda."""
    with read_csv(source) as (comments, header, rows):
        if header is not None and (header[:3] != FLOW_HEADER or
                                   header[3:] != [f"x{i}" for i in range(len(header) - 3)]):
            raise _header_error("flow", header, ",".join(FLOW_HEADER) + " then x0, x1, ...")
        data = _floats(rows, len(header or FLOW_HEADER))
    meta = comment_meta(comments)
    out = {"status": meta.get("status"),
           "Lambda": _meta_number(meta, "Lambda"),
           "t": data[:, 0], "V": data[:, 1], "envelope": data[:, 2]}
    if data.shape[1] > 3:
        out["x"] = data[:, 3:]
    return out


def _sweep_cell(name: str, text: str):
    """The value of one sweep cell: None when empty, a bool for true/false (in
    any column), the text itself in the status column, else a float, or the
    text when float() rejects it."""
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    if name == "status":
        return text
    try:
        return float(text)
    except ValueError:
        return text


def read_sweep_csv(source: Sink) -> dict:
    """Parse a sweep CSV into comment metadata plus a list of row dicts.

    A sweep repeats its values down each column, so each distinct text of a
    column is parsed once and its value shared by every row that holds it.
    """
    with read_csv(source) as (comments, header, lines):
        if header is not None and (len(set(header)) < len(header) or header[-1] != "status"):
            raise _header_error("sweep", header, "unique names ending in status")
        header = header or []
        parsed = [(name, {}) for name in header]  # per column: cell text -> value
        rows = []
        for number, line in lines:
            cells = line.split(",")
            if len(cells) != len(parsed):
                raise _width_error(number, len(cells), len(parsed))
            row = {}
            for (name, values), text in zip(parsed, cells):
                try:
                    row[name] = values[text]
                except KeyError:
                    row[name] = values[text] = _sweep_cell(name, text)
            rows.append(row)
    return {"comments": comments, "columns": header, "rows": rows}
