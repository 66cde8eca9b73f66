"""LP and MPS text export plus the matching parsers.

The LP dialect is the CPLEX-LP subset: ``Minimize``, ``Subject To``,
``Bounds``, ``Binaries``, ``End``.  MPS output is the classic fixed layout
(ROWS / COLUMNS / RHS / BOUNDS) with whitespace-delimited fields so names
longer than eight characters stay intact.  Export is deterministic:
identical models give byte-identical text, and parsing an export then
re-exporting reproduces it.

Solution ingestion accepts a plain ``name value`` whitespace table; lines
starting with ``=`` carry directives (``=status= optimal``,
``=obj= 12.5``), lines starting with ``#`` are comments.
"""

from __future__ import annotations

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


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")
_NUM_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")

_SECTIONS = {
    "minimize": "objective",
    "min": "objective",
    "subject to": "constraints",
    "st": "constraints",
    "s.t.": "constraints",
    "bounds": "bounds",
    "binaries": "binaries",
    "binary": "binaries",
    "bin": "binaries",
    "end": "end",
}


def parse_lp(text: str) -> Model:
    """Parse the LP dialect written by :func:`export_lp`.

    Line oriented: each objective/constraint row starts with ``label:``
    and may continue on following unlabeled lines; bounds rows are one
    per line.
    """
    model = Model("parsed")
    section = None
    rows: list[tuple[str, str, list[str]]] = []  # (section, label, tokens)
    current: list[str] | None = None
    bounds_rows: list[list[str]] = []
    binary_names: list[str] = []
    for raw in text.splitlines():
        stripped = raw.strip()
        if section is None and stripped.startswith("\\"):
            model.name = stripped[1:].strip() or model.name
        line = raw.split("\\", 1)[0].strip()
        if not line:
            continue
        low = line.lower()
        if low in _SECTIONS:
            section = _SECTIONS[low]
            current = None
            continue
        toks = line.replace("<=", " <= ").replace(">=", " >= ").split()
        if section in ("objective", "constraints"):
            if toks[0].endswith(":"):
                current = toks[1:]
                rows.append((section, toks[0][:-1], current))
            elif ":" in toks[0]:
                label, rest = toks[0].split(":", 1)
                current = ([rest] if rest else []) + toks[1:]
                rows.append((section, label, current))
            else:
                if current is None:
                    current = []
                    rows.append((section, "", current))
                current.extend(toks)
        elif section == "bounds":
            bounds_rows.append(toks)
        elif section == "binaries":
            binary_names.extend(toks)
        else:
            raise ValueError(f"unexpected line outside any LP section: '{line}'")

    var_domains: dict[str, Domain] = {}
    var_bounds: dict[str, tuple[float, float]] = {}
    for name in binary_names:
        var_domains[name] = Domain.BINARY
    for row in bounds_rows:
        _apply_bound_row(row, var_bounds)

    # register variables in first-appearance order across obj + constraints
    order: list[str] = []
    seen: set[str] = set()
    for _, _, toks in rows:
        for tok in toks:
            if _NAME_RE.fullmatch(tok) and tok.lower() not in ("inf", "free"):
                if tok not in seen:
                    seen.add(tok)
                    order.append(tok)
    for name in binary_names:
        if name not in seen:
            seen.add(name)
            order.append(name)
    refs = {}
    for name in order:
        domain = var_domains.get(name, Domain.CONTINUOUS_NONNEG)
        lo, hi = var_bounds.get(name, (0.0, float("inf")))
        refs[name] = model.add_var(name, domain, lo, hi)

    for sec, label, toks in rows:
        expr, sense, rhs = _parse_row(toks, refs, expect_sense=(sec == "constraints"))
        if sec == "objective":
            model.minimize(expr)
        else:
            model.add_constraint(expr, sense, rhs, label or f"c{len(model.constraints)}")
    return model


def _apply_bound_row(row: list[str], out: dict[str, tuple[float, float]]) -> None:
    toks = list(row)
    if len(toks) == 2 and toks[1].lower() == "free":
        raise ValueError("free variables are not part of the model contract")
    names = [t for t in toks if _NAME_RE.fullmatch(t) and t.lower() not in ("inf",)]
    if len(names) != 1:
        raise ValueError(f"cannot parse bounds row: {' '.join(row)}")
    name = names[0]
    lo, hi = out.get(name, (0.0, float("inf")))
    idx = toks.index(name)
    left, right = toks[:idx], toks[idx + 1 :]
    if left:
        if left[-1] == "<=":
            lo = float(left[-2])
        elif left[-1] == ">=":
            hi = float(left[-2])
        else:
            raise ValueError(f"cannot parse bounds row: {' '.join(row)}")
    if right:
        if right[0] == "<=":
            hi = float(right[1])
        elif right[0] == ">=":
            lo = float(right[1])
        elif right[0] == "=":
            lo = hi = float(right[1])
        else:
            raise ValueError(f"cannot parse bounds row: {' '.join(row)}")
    out[name] = (lo, hi)


def _parse_row(
    tokens: list[str], refs: Mapping[str, object], expect_sense: bool
) -> tuple[LinExpr, Sense, float]:
    expr = LinExpr()
    sense: Sense | None = None
    rhs = 0.0
    sign = 1.0
    coef: float | None = None
    side = 1.0  # flips to -1 once past the sense token
    for tok in tokens:
        if tok in ("<=", ">=", "="):
            sense = Sense(tok)
            side = -1.0
            sign, coef = 1.0, None
            continue
        if tok == "+":
            sign = 1.0
            continue
        if tok == "-":
            sign = -sign if coef is not None else -1.0
            continue
        if _NUM_RE.fullmatch(tok):
            value = float(tok)
            if side < 0:
                rhs += sign * value
                sign, coef = 1.0, None
            else:
                coef = sign * value if coef is None else coef * value
                sign = 1.0
            continue
        if _NAME_RE.fullmatch(tok):
            var = refs[tok]
            expr.add(var, side * (coef if coef is not None else sign))
            sign, coef = 1.0, None
            continue
        raise ValueError(f"cannot parse token '{tok}'")
    if side > 0 and coef is not None:
        expr.constant += coef
    if expect_sense:
        if sense is None:
            raise ValueError(f"constraint row lacks a sense: {' '.join(tokens)}")
        return expr, sense, rhs
    return expr, Sense.LE, 0.0


def parse_mps(text: str) -> Model:
    """Parse the MPS layout written by :func:`export_mps`."""
    model = Model("parsed")
    section = None
    row_sense: dict[str, Sense] = {}
    row_order: list[str] = []
    col_entries: dict[str, list[tuple[str, float]]] = {}
    col_order: list[str] = []
    integer_cols: set[str] = set()
    rhs_map: dict[str, float] = {}
    bounds: dict[str, tuple[float, float]] = {}
    bound_types: dict[str, str] = {}
    in_integer = False
    tag_to_sense = {"L": Sense.LE, "G": Sense.GE, "E": Sense.EQ}
    for raw in text.splitlines():
        line = raw.rstrip()
        if not line or line.startswith("*"):
            continue
        head = line.split()
        if line[0] not in " \t":
            section = head[0].upper()
            continue
        if section == "ROWS":
            tag, name = head
            if tag == "N":
                continue
            row_sense[name] = tag_to_sense[tag]
            row_order.append(name)
        elif section == "COLUMNS":
            if len(head) >= 3 and head[1].startswith("'MARKER'"):
                in_integer = head[2].strip("'") == "INTORG"
                continue
            col, row, coef = head[0], head[1], float(head[2])
            if col not in col_entries:
                col_entries[col] = []
                col_order.append(col)
            if in_integer:
                integer_cols.add(col)
            if coef != 0.0:
                col_entries[col].append((row, coef))
        elif section == "RHS":
            rhs_map[head[1]] = float(head[2])
        elif section == "BOUNDS":
            btype, _, name = head[0], head[1], head[2]
            lo, hi = bounds.get(name, (0.0, float("inf")))
            if btype == "BV":
                bound_types[name] = "BV"
            elif btype == "UP":
                hi = float(head[3])
            elif btype == "LO":
                lo = float(head[3])
            bounds[name] = (lo, hi)
    refs = {}
    for col in col_order:
        lo, hi = bounds.get(col, (0.0, float("inf")))
        if bound_types.get(col) == "BV" or (col in integer_cols and hi <= 1.0):
            refs[col] = model.add_binary(col)
        else:
            refs[col] = model.add_var(col, Domain.CONTINUOUS_NONNEG, lo, hi)
    obj = LinExpr(constant=-rhs_map.get("OBJ", 0.0))
    row_exprs: dict[str, LinExpr] = {name: LinExpr() for name in row_order}
    for col in col_order:
        for row, coef in col_entries[col]:
            if row == "OBJ":
                obj.add(refs[col], coef)
            else:
                row_exprs[row].add(refs[col], coef)
    model.minimize(obj)
    for name in row_order:
        model.add_constraint(row_exprs[name], row_sense[name], rhs_map.get(name, 0.0), name)
    return model


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
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "=status=":
            status = Status(parts[1])
        elif parts[0] == "=obj=":
            objective = float(parts[1])
        elif len(parts) >= 2:
            values[parts[0]] = float(parts[1])
    return status, objective, values
