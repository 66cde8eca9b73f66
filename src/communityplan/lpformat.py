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
from typing import Mapping

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


def _num_all(values: np.ndarray) -> list[str]:
    """:func:`_num` of every element, formatting each distinct value once."""
    unique, inverse = distinct_bits(values)
    return _num_each(unique)[inverse].tolist()


def _objective_tokens(model: Model, names: list[str]) -> list[str]:
    """The nonzero costs in column order, then the constant."""
    tokens: list[str] = []
    cost = model.cost()
    nonzero = np.flatnonzero(cost)
    coefs = cost[nonzero]
    mag = np.abs(coefs)
    for vid, negative, unit, text in zip(nonzero.tolist(), (coefs < 0).tolist(),
                                         (mag == 1.0).tolist(), _num_all(mag)):
        sign = "-" if negative else "+"
        if unit:
            tokens.extend([sign, names[vid]])
        else:
            tokens.extend([sign, text, names[vid]])
    constant = model.objective_constant
    if constant != 0.0:
        sign = "-" if constant < 0 else "+"
        tokens.extend([sign, _num(abs(constant))])
    if not tokens:
        tokens = ["0"]
    elif tokens[0] == "+":
        tokens = tokens[1:]
    return tokens


def _real_rows(model: Model) -> np.ndarray:
    """The rows of :meth:`Model.rows_with_terms`; a row without terms that
    does not hold makes the model unwritable."""
    rows, broken = model.rows_with_terms()
    if broken is not None:
        raise ValueError(f"constraint '{broken}' is vacuous and unsatisfiable")
    return rows


def export_lp(model: Model) -> str:
    """Serialize to LP text.  Rows without terms are left out, since LP
    rows need at least one variable; one that misses its right-hand side
    by more than ``FEASIBILITY_TOL`` raises a ``ValueError`` naming it.
    Each distinct cost, coefficient magnitude and right-hand side is
    formatted once, to the text :func:`_num` gives it."""
    names = model.var_names()
    head = [f"\\ {model.name}", "Minimize"]
    head.append(" obj: " + " ".join(_objective_tokens(model, names)))
    head.append("Subject To")
    lines = ["Bounds"]
    lo, hi = model.bounds()
    binary = model.binary_mask()
    bounded = np.flatnonzero(~binary & ((lo != 0.0) | (hi != np.inf)))
    for vid, low, high in zip(bounded.tolist(), lo[bounded].tolist(), hi[bounded].tolist()):
        if high == float("inf"):
            lines.append(f" {names[vid]} >= {_num(low)}")
        else:
            lines.append(f" {_num(low)} <= {names[vid]} <= {_num(high)}")
    binaries = np.flatnonzero(binary).tolist()
    if binaries:
        lines.append("Binaries")
        for vid in binaries:
            lines.append(f" {names[vid]}")
    lines.append("End")
    return "".join(["\n".join(head) + "\n", *_constraint_section(model, names),
                    "\n".join(lines) + "\n"])


# Rows per block of ``Subject To`` text; bounds the temporaries of a large export.
_ROW_CHUNK = 4096


def _constraint_section(model: Model, names: list[str]) -> list[str]:
    """``Subject To`` rows, one line each: terms in column order, each
    distinct coefficient magnitude and each distinct (sense, rhs) formatted
    once.  Returns the text in blocks of ``_ROW_CHUNK`` rows; a block is
    joined once from the pieces of its lines, gathered in line order."""
    rows = _real_rows(model)
    if not len(rows):
        return []
    mat = model.matrix()[rows] if len(rows) < model.matrix().shape[0] else model.matrix().copy()
    mat.sort_indices()
    indptr, cols, data = mat.indptr, mat.indices, mat.data
    # prefix of each term by (magnitude, sign, first in row): " + 2.5 ", " - ", "2.5 ", ...
    unique, inverse = distinct_bits(np.abs(data))
    prefix_text = []
    for mag, text in zip(unique.tolist(), _num_each(unique).tolist()):
        text = "" if mag == 1.0 else text + " "
        prefix_text.extend([" + " + text, " - " + text, text, "- " + text])
    prefixes = np.array(prefix_text, dtype=object)
    first = np.zeros(len(data), bool)
    first[indptr[:-1]] = True
    code = 4 * inverse + (data < 0) + 2 * first
    # tail of each row by (sense, rhs): " <= 2.5\n", " = 0\n", ...
    rhs, rhs_inverse = distinct_bits(model.row_rhs()[rows])
    rhs_text = _num_each(rhs).tolist()
    sense_text = [s.value for s in SENSES]
    tails = np.array([f" {s} {v}\n" for s in sense_text for v in rhs_text], dtype=object)
    tail = model.row_sense()[rows].astype(np.intp) * len(rhs) + rhs_inverse
    col_names = np.array(names, dtype=object)
    row_names = np.array(model.row_names(), dtype=object)[rows]
    counts = np.diff(indptr)
    blocks = []
    for a in range(0, len(rows), _ROW_CHUNK):
        b = min(a + _ROW_CHUNK, len(rows))
        lo, hi = indptr[a], indptr[b]
        # row i: " ", its name, ": ", prefix and name of each term, its tail
        head_at = 4 * np.arange(b - a) + 2 * (indptr[a:b] - lo)
        term_at = 2 * np.arange(hi - lo) + 4 * np.repeat(np.arange(b - a), counts[a:b]) + 3
        pieces = np.empty(4 * (b - a) + 2 * (hi - lo), dtype=object)
        pieces[head_at] = " "
        pieces[head_at + 1] = row_names[a:b]
        pieces[head_at + 2] = ": "
        pieces[term_at] = prefixes[code[lo:hi]]
        pieces[term_at + 1] = col_names[cols[lo:hi]]
        pieces[head_at + 3 + 2 * counts[a:b]] = tails[tail[a:b]]
        blocks.append("".join(pieces.tolist()))
    return blocks


def export_mps(model: Model) -> str:
    """Serialize to MPS text, with the rows :func:`export_lp` writes."""
    rows = [f"NAME          {model.name}", "ROWS", " N  OBJ"]
    sense_tag = {Sense.LE: "L", Sense.GE: "G", Sense.EQ: "E"}
    real = _real_rows(model)
    all_row_names = model.row_names()
    row_names = [all_row_names[r] for r in real.tolist()]
    for name, code in zip(row_names, model.row_sense()[real].tolist()):
        rows.append(f" {sense_tag[SENSES[code]]}  {name}")
    rows.append("COLUMNS")
    # column-major: the nonzero cost, then the rows in order
    csc = model.matrix()[real].tocsc()
    csc.sort_indices()
    coef_text = _num_all(csc.data)
    indptr, row_idx = csc.indptr.tolist(), csc.indices.tolist()
    names = model.var_names()
    binary = model.binary_mask().tolist()
    cost = model.cost()
    cost_text = _num_all(cost)
    cost = cost.tolist()
    in_integer = False
    marker = 0
    for vid, name in enumerate(names):
        want_integer = binary[vid]
        if want_integer and not in_integer:
            rows.append(f"    MARKER{marker}    'MARKER'    'INTORG'")
            marker += 1
            in_integer = True
        elif not want_integer and in_integer:
            rows.append(f"    MARKER{marker}    'MARKER'    'INTEND'")
            marker += 1
            in_integer = False
        a, b = indptr[vid], indptr[vid + 1]
        if cost[vid]:
            rows.append(f"    {name}  OBJ  {cost_text[vid]}")
        elif a == b:
            rows.append(f"    {name}  OBJ  0")  # keep every declared column present
        for j in range(a, b):
            rows.append(f"    {name}  {row_names[row_idx[j]]}  {coef_text[j]}")
    if in_integer:
        rows.append(f"    MARKER{marker}    'MARKER'    'INTEND'")
    rows.append("RHS")
    if model.objective_constant != 0.0:
        rows.append(f"    RHS  OBJ  {_num(-model.objective_constant)}")
    rhs = model.row_rhs()[real]
    nonzero = np.flatnonzero(rhs != 0.0)
    for i, text in zip(nonzero.tolist(), _num_all(rhs[nonzero])):
        rows.append(f"    RHS  {row_names[i]}  {text}")
    rows.append("BOUNDS")
    lo, hi = model.bounds()
    for name, is_binary, low, high in zip(names, binary, lo.tolist(), hi.tolist()):
        if is_binary:
            rows.append(f" BV BND  {name}")
            continue
        if low != 0.0:
            rows.append(f" LO BND  {name}  {_num(low)}")
        if high != float("inf"):
            rows.append(f" UP BND  {name}  {_num(high)}")
    rows.append("ENDATA")
    return "\n".join(rows) + "\n"


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
