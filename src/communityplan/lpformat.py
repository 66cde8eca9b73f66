"""LP and MPS text export, the matching readers, and solution tables.

The LP dialect is the CPLEX-LP subset: ``Minimize``, ``Subject To``,
``Bounds``, ``Binaries``, ``End``.  MPS output is the classic fixed layout
(ROWS / COLUMNS / RHS / BOUNDS) with whitespace-delimited fields so names
longer than eight characters stay intact.  Export is deterministic:
identical models give byte-identical text.  The readers take exactly the
layouts the writers write; any other line raises a ``ValueError`` naming
its line number.  MPS text read and written again is the same text.  LP
text reads back to the same columns, rows, bounds and costs, with the
columns in order of first appearance, so its text may differ.

A solution table has one ``name value`` pair per line; ``=status=`` and
``=obj=`` lines carry the status and the objective, lines starting with
``#`` are comments, and any other line raises a ``ValueError``.
"""

from __future__ import annotations

import math
import re
from typing import Iterator, Mapping

import numpy as np

from .core import distinct_bits
from .milp import SENSES, Domain, LinExpr, Model, Sense, Status

__all__ = [
    "export_lp",
    "export_mps",
    "parse_lp",
    "parse_mps",
    "format_solution_table",
    "parse_solution_table",
]


def _num(x: float) -> str:
    """Shortest round-trip decimal; integers without trailing zeros."""
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(float(x))


def _num_each(values: np.ndarray) -> np.ndarray:
    """:func:`_num` of each element as an object array, in two array
    passes: integers below 1e16 through ``int``, the rest through
    ``repr``.  A non-finite element has no text and raises ``ValueError``."""
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"cannot write non-finite number {float(values[~finite][0])}")
    whole = (np.abs(values) < 1e16) & (values == np.trunc(values))
    text = np.empty(len(values), object)
    text[whole] = list(map(str, values[whole].astype(np.int64).tolist()))
    text[~whole] = list(map(repr, values[~whole].tolist()))
    return text


def _distinct_texts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_num` of each distinct value of ``values`` (an object array)
    and the index of each element into it; each value is formatted once."""
    unique, inverse = distinct_bits(values)
    return _num_each(unique), inverse


def _term_prefixes(magnitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The text before a term's column name and each term's distinct
    magnitude ``k``.  Entry ``4 * k + negative + 2 * first`` of the table
    reads " + 2.5 ", " - 2.5 ", "2.5 " or "- 2.5 "; a unit magnitude
    prints no number."""
    unique, inverse = distinct_bits(magnitudes)
    table = []
    for mag, text in zip(unique.tolist(), _num_each(unique).tolist()):
        text = "" if mag == 1.0 else text + " "
        table.extend([" + " + text, " - " + text, text, "- " + text])
    return np.array(table, dtype=object), inverse


def _joined(lines: int, *columns) -> str:
    """``lines`` lines whose pieces are the given columns, each an array of
    one piece per line or one string shared by every line."""
    pieces = np.empty((lines, len(columns)), dtype=object)
    for j, column in enumerate(columns):
        pieces[:, j] = column
    return "".join(pieces.ravel().tolist())


def _blocks(start: int, stop: int) -> Iterator[tuple[int, int]]:
    """``[a, b)`` ranges of at most ``_ROW_CHUNK`` rows or columns."""
    for a in range(start, stop, _ROW_CHUNK):
        yield a, min(a + _ROW_CHUNK, stop)


def _objective_line(model: Model, heads: np.ndarray, tails: np.ndarray) -> str:
    """The ``obj:`` line: the nonzero costs in column order, then the constant."""
    cost = model.cost()
    cols = np.flatnonzero(cost)
    coefs = cost[cols]
    prefixes, mag = _term_prefixes(np.abs(coefs))
    code = 4 * mag + (coefs < 0)
    code[:1] += 2
    text = _joined(len(cols), prefixes[code], heads[cols], tails[cols])
    constant = model.objective_constant
    if constant != 0.0:
        sign = (" + ", " - ", "", "- ")[(constant < 0) + 2 * (not text)]
        text += sign + _num(abs(constant))
    return f" obj: {text or '0'}\n"


def _check_empty_rows(model: Model) -> None:
    """A row without terms that does not hold makes the model unwritable;
    the others are left out (see :meth:`Model.rows_with_terms`)."""
    broken = model.rows_with_terms()[1]
    if broken is not None:
        raise ValueError(f"constraint '{broken}' is vacuous and unsatisfiable")


def export_lp(model: Model) -> str:
    """Serialize to LP text.  Rows without terms are left out, since LP
    rows need at least one variable; one that misses its right-hand side
    by more than ``FEASIBILITY_TOL`` raises a ``ValueError`` naming it.
    Each distinct cost, coefficient magnitude and right-hand side is
    formatted once, to the text :func:`_num` gives it.

    Names are never built: rows and terms gather the shared head and tail
    strings of :meth:`Model.var_name_pieces` and
    :meth:`Model.row_name_pieces`.  Each block of ``_ROW_CHUNK`` rows goes
    into one growing byte buffer and is dropped; the text is decoded from
    it once.  So besides the model and the name pieces, the export holds
    one ``int32`` per coefficient, one block's pieces, the buffer and, at
    the end, the text: with or without a trace or profile hook."""
    _check_empty_rows(model)
    heads, tails = model.var_name_pieces()
    head = f"\\ {model.name}\nMinimize\n{_objective_line(model, heads, tails)}Subject To\n"
    text = bytearray(head.encode())
    for block in _constraint_section(model, heads, tails):
        text += block.encode()
    lines = ["Bounds"]
    lo, hi = model.bounds()
    binary = model.binary_mask()
    bounded = np.flatnonzero(~binary & ((lo != 0.0) | (hi != np.inf)))
    for vid, low, high in zip(bounded.tolist(), lo[bounded].tolist(), hi[bounded].tolist()):
        name = heads[vid] + tails[vid]
        if high == float("inf"):
            lines.append(f" {name} >= {_num(low)}")
        else:
            lines.append(f" {_num(low)} <= {name} <= {_num(high)}")
    binaries = np.flatnonzero(binary).tolist()
    if binaries:
        lines.append("Binaries")
        lines.extend([f" {heads[vid]}{tails[vid]}" for vid in binaries])
    lines.append("End")
    text += ("\n".join(lines) + "\n").encode()
    return text.decode()


# Rows (or MPS columns) per block of text; bounds the temporaries of a large export.
_ROW_CHUNK = 4096


def _constraint_section(model: Model, heads: np.ndarray, tails: np.ndarray) -> Iterator[str]:
    """``Subject To`` rows that have terms, one line each: terms in column
    order, each distinct coefficient magnitude and each distinct rhs
    formatted once.  Reads the model's CSR matrix a block of ``_ROW_CHUNK``
    rows at a time and yields each block's text, joined once from the
    pieces of its lines gathered in line order."""
    mat = model.matrix()
    indptr, cols, data = mat.indptr, mat.indices, mat.data
    width = np.int64(mat.shape[1])
    prefixes, mag = _term_prefixes(np.abs(data))
    rhs_text, rhs_index = _distinct_texts(model.row_rhs())
    rhs_text += "\n"
    senses = np.array([f" {s.value} " for s in SENSES], dtype=object)
    sense = model.row_sense()
    row_heads, row_tails = model.row_name_pieces()
    for a, b in _blocks(0, mat.shape[0]):
        counts = np.diff(indptr[a:b + 1])
        rows = a + np.flatnonzero(counts)
        if not len(rows):
            continue
        counts = counts[rows - a]
        lo, hi = indptr[a], indptr[b]
        # sort each row's terms by column
        row_of = np.repeat(np.arange(len(rows)), counts)
        order = np.argsort(row_of * width + cols[lo:hi], kind="stable")
        term_cols = cols[lo:hi][order]
        code = 4 * mag[lo:hi][order] + (data[lo:hi][order] < 0)
        firsts = np.cumsum(counts) - counts
        code[firsts] += 2
        # row r: " ", its name, ": ", prefix and name of each term, sense, rhs
        at = 6 * np.arange(len(rows)) + 3 * firsts
        term_at = 3 * np.arange(hi - lo) + 6 * row_of + 4
        pieces = np.empty(6 * len(rows) + 3 * (hi - lo), dtype=object)
        pieces[at] = " "
        pieces[at + 1] = row_heads[rows]
        pieces[at + 2] = row_tails[rows]
        pieces[at + 3] = ": "
        pieces[term_at] = prefixes[code]
        pieces[term_at + 1] = heads[term_cols]
        pieces[term_at + 2] = tails[term_cols]
        pieces[at + 4 + 3 * counts] = senses[sense[rows]]
        pieces[at + 5 + 3 * counts] = rhs_text[rhs_index[rows]]
        yield "".join(pieces.tolist())


def export_mps(model: Model) -> str:
    """Serialize to MPS text, with the rows :func:`export_lp` writes.

    Like :func:`export_lp`, names are never built and each distinct number
    is formatted once.  Besides the model, the export holds the byte buffer
    (decoded once, as in :func:`export_lp`), the name pieces, a CSC copy of
    the matrix with one ``int32`` per coefficient, and one block of
    ``_ROW_CHUNK`` rows' or columns' pieces."""
    _check_empty_rows(model)
    heads, tails = model.var_name_pieces()
    row_heads, row_tails = model.row_name_pieces()
    indptr = model.matrix().indptr
    has_terms = indptr[1:] > indptr[:-1]
    sense, rhs = model.row_sense(), model.row_rhs()
    tags = np.array([f" {tag}  " for tag in "LEG"], dtype=object)  # SENSES order
    text = bytearray(f"NAME          {model.name}\nROWS\n N  OBJ\n".encode())
    for a, b in _blocks(0, len(has_terms)):
        rows = a + np.flatnonzero(has_terms[a:b])
        text += _joined(len(rows), tags[sense[rows]], row_heads[rows], row_tails[rows],
                        "\n").encode()
    text += b"COLUMNS\n"
    for part in _mps_columns(model, heads, tails, row_heads, row_tails):
        text += part.encode()
    text += b"RHS\n"
    if model.objective_constant != 0.0:
        text += f"    RHS  OBJ  {_num(-model.objective_constant)}\n".encode()
    rhs_text, rhs_index = _distinct_texts(rhs)
    rhs_text = "  " + rhs_text + "\n"
    for a, b in _blocks(0, len(has_terms)):
        rows = a + np.flatnonzero(has_terms[a:b] & (rhs[a:b] != 0.0))
        text += _joined(len(rows), "    RHS  ", row_heads[rows], row_tails[rows],
                        rhs_text[rhs_index[rows]]).encode()
    lines = ["BOUNDS"]
    lo, hi = model.bounds()
    binary = model.binary_mask()
    listed = np.flatnonzero(binary | (lo != 0.0) | (hi != np.inf))
    for vid, is_binary, low, high in zip(listed.tolist(), binary[listed].tolist(),
                                         lo[listed].tolist(), hi[listed].tolist()):
        name = heads[vid] + tails[vid]
        if is_binary:
            lines.append(f" BV BND  {name}")
            continue
        if low != 0.0:
            lines.append(f" LO BND  {name}  {_num(low)}")
        if high != float("inf"):
            lines.append(f" UP BND  {name}  {_num(high)}")
    lines.append("ENDATA")
    text += ("\n".join(lines) + "\n").encode()
    return text.decode()


def _mps_columns(model: Model, heads: np.ndarray, tails: np.ndarray,
                 row_heads: np.ndarray, row_tails: np.ndarray) -> Iterator[str]:
    """``COLUMNS`` lines, a block of ``_ROW_CHUNK`` columns at a time: each
    column's cost (``0`` for a column without entries, so that every
    declared column is present), then its entries in row order; integer
    markers open and close each run of binaries."""
    csc = model.matrix().tocsc()
    csc.sort_indices()
    indptr, entry_rows = csc.indptr, csc.indices
    value_text, value_index = _distinct_texts(csc.data)
    value_text = "  " + value_text + "\n"
    counts = np.diff(indptr)
    cost = model.cost()
    cost_text, cost_index = _distinct_texts(cost)
    cost_text = "  " + cost_text + "\n"
    has_cost = (cost != 0.0) | (counts == 0)

    def columns(start: int, stop: int) -> Iterator[str]:
        for a, b in _blocks(start, stop):
            lines = has_cost[a:b] + counts[a:b]
            cost_at = (np.cumsum(lines) - lines)[has_cost[a:b]]
            entry = np.ones(lines.sum(), bool)
            entry[cost_at] = False
            found = entry_rows[indptr[a]:indptr[b]]
            row_head = np.empty(len(entry), dtype=object)
            row_tail = np.empty(len(entry), dtype=object)
            value = np.empty(len(entry), dtype=object)
            row_head[cost_at], row_tail[cost_at] = "OBJ", ""
            value[cost_at] = cost_text[cost_index[a:b][has_cost[a:b]]]
            row_head[entry], row_tail[entry] = row_heads[found], row_tails[found]
            value[entry] = value_text[value_index[indptr[a]:indptr[b]]]
            col = np.repeat(np.arange(a, b), lines)
            yield _joined(len(entry), "    ", heads[col], tails[col], "  ",
                          row_head, row_tail, value)

    # the status flips from continuous to binary and back at these columns
    flips = np.flatnonzero(np.diff(model.binary_mask(), prepend=False, append=False))
    start = 0
    for marker, flip in enumerate(flips.tolist()):
        yield from columns(start, flip)
        yield f"    MARKER{marker}    'MARKER'    '{('INTORG', 'INTEND')[marker % 2]}'\n"
        start = flip
    yield from columns(start, len(cost))


# A magnitude and a number as :func:`_num` writes them
_MAG = r"\d+(?:\.\d+)?(?:e[+-]\d+)?"
_NUM = "-?" + _MAG
# An LP term, its sign written out, and a sum of them that may end in a number
_TERM = re.compile(rf"([+-]) (?:({_MAG}) )?(\S+) ")
_SUM = re.compile(rf"((?:[+-] (?:{_MAG} )?\S+ )*?)(?:([+-]) ({_MAG}) )?")

# The head lines of each format, then each section's header and the shape
# of its lines (None: it has none)
_LP_HEAD = (re.compile(r"\\ (.*)"), re.compile("Minimize"), re.compile(r" obj: (.+)"))
_LP_SECTIONS = {
    "Minimize": None,
    "Subject To": re.compile(rf" (\S+): (.+) (<=|=|>=) ({_NUM})"),
    "Bounds": re.compile(rf" ({_MAG}) <= (\S+) <= ({_MAG})| (\S+) >= ({_MAG})"),
    "Binaries": re.compile(r" (\S+)"),
    "End": None,
}
_MPS_HEAD = (re.compile("NAME {10}(.*)"), re.compile("ROWS"), re.compile(" N  OBJ"))
_MPS_SECTIONS = {
    "ROWS": re.compile(r" ([LEG])  (\S+)"),
    "COLUMNS": re.compile(rf"    (\S+)  (\S+)  ({_NUM})"
                          r"|    MARKER\d+    'MARKER'    '(?:INTORG|INTEND)'"),
    "RHS": re.compile(rf"    (RHS)  (\S+)  ({_NUM})"),
    "BOUNDS": re.compile(rf" (BV) BND  (\S+)| (LO|UP) BND  (\S+)  ({_MAG})"),
    "ENDATA": None,
}


def _records(lines: list[str], head: tuple, sections: dict, where: list[int]):
    """``(None, match)`` for each capturing ``head`` pattern on the first
    lines, then ``(header, match)`` for each later line but the headers,
    which come in the order of ``sections`` (only ``Binaries`` may be left
    out); each line must match its pattern.  ``where[0]`` is the number of
    the line read last."""
    headers, section = list(sections), 0
    for where[0], line in enumerate(lines + [""] * (len(head) - len(lines)), 1):
        header = headers[section] if where[0] > len(head) else None
        if header and line in sections:
            following = headers.index(line)
            if following <= section or headers[section + 1:following] not in ([], ["Binaries"]):
                raise ValueError(f"section '{line}' out of order")
            section = following
            continue
        pattern = sections[header] if header else head[where[0] - 1]
        match = pattern.fullmatch(line) if pattern else None
        if match is None:
            raise ValueError(f"not a line of {header or 'the head'!r}")
        if header or pattern.groups:
            yield header, match
    if section != len(headers) - 1:  # where[0] is the last line
        raise ValueError(f"text ends before '{headers[-1]}'")


def _terms(text: str, columns: dict[str, int],
           line: int) -> tuple[list[tuple[str, float]], float | None]:
    """The terms ``[-] [coef] name``, then ``+|- [coef] name``, of LP line
    ``line``, and the value of a last term without a name (None if none).
    Adds the columns they name to ``columns`` with their first line."""
    match = _SUM.fullmatch(("" if text.startswith("- ") else "+ ") + text + " ")
    if match is None:
        raise ValueError("terms do not read '[-] [coef] name', then '+|- [coef] name'")
    terms = [(name, float(sign + (coef or "1"))) for sign, coef, name in _TERM.findall(match[1])]
    for name, _ in terms:
        columns.setdefault(name, line)
    return terms, float(match[2] + match[3]) if match[2] else None


def _build(name: str, columns: dict[str, int], bounds: dict, cost: list, constant: float,
           rows: list, where: list[int]) -> Model:
    """The model a reader found: ``columns`` in order, each with its first
    line and the ``(lo, hi, binary, line)`` that ``bounds`` may hold; the
    objective's terms and constant; ``rows`` of ``(line, label, terms,
    sense, rhs)``."""
    model = Model(name)
    refs = {}
    for col, line in columns.items():
        lo, hi, binary, where[0] = bounds.get(col, (0.0, math.inf, False, line))
        domain = Domain.BINARY if binary else Domain.CONTINUOUS_NONNEG
        refs[col] = model.add_var(col, domain, lo, hi)
    model.minimize(LinExpr.of(((refs[col], c) for col, c in cost), constant))
    for where[0], label, terms, sense, rhs in rows:
        model.add_constraint(LinExpr.of((refs[col], c) for col, c in terms), sense, rhs, label)
    return model


def parse_lp(text: str) -> Model:
    """Read the LP text :func:`export_lp` writes: ``\\ name``,
    ``Minimize`` and the ``obj:`` line, then one row, bound or binary per
    line under its header.  Columns are registered in order of first
    appearance over the objective, rows, bounds and binaries.  Any other
    line raises a ``ValueError`` naming its line number."""
    lines, where = text.splitlines(), [1]
    try:
        records = _records(lines, _LP_HEAD, _LP_SECTIONS, where)
        name = next(records)[1][1]
        columns, rows, bounds = {}, [], {}
        cost, constant = _terms(next(records)[1][1], columns, where[0])
        for header, match in records:
            if header == "Subject To":
                terms, extra = _terms(match[2], columns, where[0])
                if extra is not None:
                    raise ValueError("a row term lacks its column")
                rows.append((where[0], match[1], terms, Sense(match[3]), float(match[4])))
                continue
            if header == "Binaries":
                col, bound = match[1], (0.0, 1.0, True)
            elif match[2]:
                col, bound = match[2], (float(match[1]), float(match[3]), False)
            else:
                col, bound = match[4], (float(match[5]), math.inf, False)
            if col in bounds:
                raise ValueError(f"column '{col}' is listed twice")
            columns.setdefault(col, where[0])
            bounds[col] = (*bound, where[0])
        return _build(name, columns, bounds, cost, constant or 0.0, rows, where)
    except ValueError as exc:
        raise ValueError(f"line {where[0]}: {exc}") from None


def parse_mps(text: str) -> Model:
    """Read the MPS text :func:`export_mps` writes: ``NAME``, ``ROWS`` and
    ``N  OBJ``, then one record per line under each header.  Entries and
    right-hand sides name declared rows and bounds declared columns;
    integer markers are skipped, and binaries come from ``BV`` bounds.
    Any other line raises a ``ValueError`` naming its line number."""
    lines, where = text.splitlines(), [1]
    try:
        records = _records(lines, _MPS_HEAD, _MPS_SECTIONS, where)
        name = next(records)[1][1]
        rows, columns, rhs, bounds = {"OBJ": (None, [])}, {}, {}, {}
        for header, match in records:
            if header == "ROWS":
                if match[2] in rows:
                    raise ValueError(f"row '{match[2]}' is declared twice")
                rows[match[2]] = (SENSES["LEG".index(match[1])], [])
            elif header == "BOUNDS":
                kind, col = match[1] or match[3], match[2] or match[4]
                lo, hi, _, _ = bounds.get(col, (0.0, math.inf, False, 0))
                # a column has a BV, an LO, an UP, or an LO then an UP line
                if col not in columns or col in bounds and (kind != "UP" or hi != math.inf):
                    raise ValueError(f"bound of an undeclared column or a second bound: '{col}'")
                value = float(match[5] or 1)
                bounds[col] = (value if kind == "LO" else lo, hi if kind == "LO" else value,
                               kind == "BV", where[0])
            elif match[1]:  # an entry or a right-hand side (column "RHS"), not a marker
                col, row, value = match[1], match[2], float(match[3])
                if row not in rows or (header == "RHS" and row in rhs):
                    raise ValueError(f"undeclared row or second right-hand side '{row}'")
                if header == "RHS":
                    rhs[row] = value
                else:
                    columns.setdefault(col, where[0])
                    rows[row][1].append((col, value))
        cost, constant = rows.pop("OBJ")[1], 0.0 - rhs.pop("OBJ", 0.0)  # 0.0, not -0.0
        found = [(where[0], row, terms, sense, rhs.get(row, 0.0))
                 for row, (sense, terms) in rows.items()]
        return _build(name, columns, bounds, cost, constant, found, where)
    except ValueError as exc:
        raise ValueError(f"line {where[0]}: {exc}") from None


def format_solution_table(
    status: Status, objective: float, values: Mapping[str, float]
) -> str:
    lines = [f"=status= {status.value}", f"=obj= {_num(objective)}"]
    for name in values:
        lines.append(f"{name} {_num(values[name])}")
    return "\n".join(lines) + "\n"


def parse_solution_table(text: str) -> tuple[Status, float | None, dict[str, float]]:
    status = Status.OPTIMAL
    objective: float | None = None
    values: dict[str, float] = {}
    for number, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        try:
            if len(parts) != 2:
                raise ValueError("expected 'name value'")
            if parts[0] == "=status=":
                status = Status(parts[1])
            elif parts[0] == "=obj=":
                objective = float(parts[1])
            else:
                values[parts[0]] = float(parts[1])
        except ValueError as exc:
            raise ValueError(f"solution table line {number}: {exc}") from None
    return status, objective, values
