"""Solver-neutral mixed-integer linear model representation.

A :class:`Model` collects named variables, linear constraints and one
minimization objective.  Every decision variable is either a non-negative
continuous or a binary; nothing here knows about buildings or devices.
Models are built single-threaded, solved through the pluggable backends in
:mod:`communityplan.solvers`, and exportable to LP/MPS text via
:mod:`communityplan.lpformat`.

Storage is columnar.  Columns live in bound and integrality arrays and
rows in one row-major coefficient store (per-row term counts, column
indices and values, in the order the terms were added) plus right-hand
side and sense arrays.  Emitters add whole families at once:
:meth:`Model.add_vars` declares a block of columns named
``{stem}_t{index}`` and :meth:`Model.add_constraints` a family of
interleaved rows named the same way; those names are derived from
(stem, index) when asked for, not stored per column or row.  The objective
is ``cost() @ x + objective_constant``, one cost entry per column.  The
scalar API (:class:`VarRef`, :class:`LinExpr`, :meth:`Model.add_var`,
:meth:`Model.add_constraint`, ``model.variables``, ``model.constraints``)
reads and writes the same storage.

A solve returns a :class:`SolveResult` whose ``x`` is the solution vector
in column order; ``x[var.id]`` reads one variable and :func:`read_values`
a block.  Names appear only in text: the LP/MPS files and the
``name value`` table of a command-line solver.
"""

from __future__ import annotations

import bisect
import enum
import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
from scipy import sparse

__all__ = [
    "Domain",
    "Sense",
    "Status",
    "VarRef",
    "VarBlock",
    "LinExpr",
    "Constraint",
    "Model",
    "SolveResult",
    "constraint_violation",
    "read_values",
    "FEASIBILITY_TOL",
]

_model_counter = itertools.count()

# absolute feasibility tolerance: how far a row without terms may miss its
# right-hand side before the model counts as infeasible
FEASIBILITY_TOL = 1e-6


class Domain(str, enum.Enum):
    CONTINUOUS_NONNEG = "continuous_nonneg"
    BINARY = "binary"


class Sense(str, enum.Enum):
    LE = "<="
    EQ = "="
    GE = ">="


# row sense codes in the sense array
SENSES = (Sense.LE, Sense.EQ, Sense.GE)
_SENSE_CODE = {sense: code for code, sense in enumerate(SENSES)}


class Status(str, enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    LIMIT = "limit"


@dataclass(frozen=True)
class VarRef:
    """Handle to one registered variable; only valid within its model."""

    id: int
    name: str
    domain: Domain
    lo: float
    hi: float
    model_id: int

    def __mul__(self, coef: float) -> "LinExpr":
        return LinExpr({self.id: float(coef)}, 0.0, self.model_id)

    __rmul__ = __mul__

    def __add__(self, other) -> "LinExpr":
        return LinExpr({self.id: 1.0}, 0.0, self.model_id) + other

    def __radd__(self, other) -> "LinExpr":
        return self.__add__(other)

    def __sub__(self, other) -> "LinExpr":
        return LinExpr({self.id: 1.0}, 0.0, self.model_id) - other

    def __neg__(self) -> "LinExpr":
        return LinExpr({self.id: -1.0}, 0.0, self.model_id)


class VarBlock(Sequence):
    """Contiguous continuous columns ``start, start + 1, ...`` named
    ``{stem}_t{i}``, bounded below by ``lo`` and unbounded above.

    Indexing hands out :class:`VarRef` handles; slicing with step 1 gives
    a sub-block that keeps the original names.
    """

    __slots__ = ("model_id", "stem", "start", "first", "size", "lo")

    def __init__(self, model_id: int, stem: str, start: int, first: int, size: int,
                 lo: float) -> None:
        self.model_id = model_id
        self.stem = stem
        self.start = start  # column index of element 0
        self.first = first  # name index of element 0
        self.size = size
        self.lo = lo

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, key):
        if isinstance(key, slice):
            a, b, step = key.indices(self.size)
            if step != 1:
                return tuple(self[i] for i in range(a, b, step))
            return VarBlock(self.model_id, self.stem, self.start + a, self.first + a,
                            max(b - a, 0), self.lo)
        i = key + self.size if key < 0 else key
        if not 0 <= i < self.size:
            raise IndexError(f"block {self.stem} has {self.size} elements")
        return VarRef(self.start + i, f"{self.stem}_t{self.first + i}",
                      Domain.CONTINUOUS_NONNEG, self.lo, math.inf, self.model_id)

    @property
    def ids(self) -> np.ndarray:
        return np.arange(self.start, self.start + self.size)

    def __repr__(self) -> str:
        return f"VarBlock({self.stem}_t{self.first}..{self.first + self.size - 1})"


def _column_ids(vars, model_id: int | None = None) -> tuple[int | None, np.ndarray]:
    """Model id and column indices of a variable, block or sequence."""
    if isinstance(vars, VarRef):
        return vars.model_id, np.array([vars.id])
    if isinstance(vars, VarBlock):
        return vars.model_id, vars.ids
    ids = np.empty(len(vars), dtype=np.int64)
    for i, var in enumerate(vars):
        if model_id is None:
            model_id = var.model_id
        elif var.model_id != model_id:
            raise ValueError(f"variable {var.name} belongs to a different model")
        ids[i] = var.id
    return model_id, ids


def _accumulate(terms: dict[int, float], ids: Iterable[int], coefs: Iterable[float]) -> None:
    """Add coefficients into a term map in order: zeros are skipped, a
    repeated id is summed, and a sum of exactly zero drops the term."""
    for vid, coef in zip(ids, coefs):
        if coef:
            new = terms.get(vid, 0.0) + coef
            if new == 0.0:
                terms.pop(vid, None)
            else:
                terms[vid] = new


@dataclass
class LinExpr:
    """Linear expression: coefficient map over variable ids plus a constant.

    Zero coefficients are dropped on normalization so equal expressions
    compare equal regardless of construction order.
    """

    terms: dict[int, float] = field(default_factory=dict)
    constant: float = 0.0
    model_id: int | None = None

    @staticmethod
    def of(pairs: Iterable[tuple[VarRef, float]], constant: float = 0.0) -> "LinExpr":
        expr = LinExpr(constant=constant)
        for var, coef in pairs:
            expr.add(var, coef)
        return expr

    def _own(self, model_id: int | None, what: str) -> None:
        if self.model_id is None:
            self.model_id = model_id
        elif model_id is not None and self.model_id != model_id:
            raise ValueError(f"variable {what} belongs to a different model")

    def add(self, var: VarRef, coef: float) -> "LinExpr":
        self._own(var.model_id, var.name)
        _accumulate(self.terms, (var.id,), (coef,))
        return self

    def _merge(self, other, sign: float) -> "LinExpr":
        out = LinExpr(dict(self.terms), self.constant, self.model_id)
        if isinstance(other, VarRef):
            other = LinExpr({other.id: 1.0}, 0.0, other.model_id)
        if isinstance(other, LinExpr):
            if out.model_id is None:
                out.model_id = other.model_id
            elif other.model_id is not None and out.model_id != other.model_id:
                raise ValueError("cannot combine expressions from different models")
            _accumulate(out.terms, other.terms, [sign * coef for coef in other.terms.values()])
            out.constant += sign * other.constant
            return out
        if isinstance(other, (int, float)):
            out.constant += sign * other
            return out
        return NotImplemented

    def __add__(self, other) -> "LinExpr":
        return self._merge(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other) -> "LinExpr":
        return self._merge(other, -1.0)

    def __mul__(self, coef: float) -> "LinExpr":
        return LinExpr(
            {vid: c * coef for vid, c in self.terms.items() if c * coef != 0.0},
            self.constant * coef,
            self.model_id,
        )

    __rmul__ = __mul__

    def normalized(self) -> "LinExpr":
        return LinExpr(
            {vid: c for vid, c in self.terms.items() if c != 0.0},
            self.constant,
            self.model_id,
        )

    def validate_finite(self) -> None:
        if not math.isfinite(self.constant):
            raise ValueError("expression constant must be finite")
        for vid, coef in self.terms.items():
            if not math.isfinite(coef):
                raise ValueError(f"non-finite coefficient on variable id {vid}")


@dataclass(frozen=True)
class Constraint:
    index: int
    name: str
    expr: LinExpr
    sense: Sense
    rhs: float


def _split_name(name: str) -> tuple[str, int] | None:
    """(stem, index) of a name shaped like a family member ``{stem}_t{index}``."""
    stem, sep, index = name.rpartition("_t")
    if sep and index.isascii() and index.isdigit() and (index == "0" or index[0] != "0"):
        return stem, int(index)
    return None


def _check_name(name: str, kind: str) -> None:
    """ValueError naming ``name`` when LP text cannot carry it: when it is
    empty, holds whitespace or ``:``, or reads as a number (a column ``5``
    would be written `` obj: 5``, which reads as a constant)."""
    if not name or re.search(r"[\s:]", name):
        raise ValueError(f"{kind} {name!r} is empty or holds whitespace or ':'")
    try:
        float(name)
    except ValueError:
        return
    raise ValueError(f"{kind} {name!r} reads as a number")


@dataclass(frozen=True)
class _Family:
    stems: tuple[str, ...]
    first: int
    steps: int


class _Names:
    """Names along one axis (columns or rows): runs of explicit names and
    families whose member ``k`` of step ``t`` is ``{stems[k]}_t{first + t}``."""

    def __init__(self) -> None:
        self.size = 0
        self._starts: list[int] = []
        self._segments: list[list[str] | _Family] = []
        self._explicit: dict[str, int] = {}
        self._stems: dict[str, tuple[int, int]] = {}  # stem -> (segment, member)
        self._explicit_indexed: dict[str, set[int]] = {}  # stem -> indices

    def add_explicit(self, name: str, kind: str) -> int:
        _check_name(name, f"{kind} name")
        if name in self._explicit or self._family_index(name) is not None:
            raise ValueError(f"duplicate {kind} name '{name}'")
        split = _split_name(name)
        if split is not None:
            self._explicit_indexed.setdefault(split[0], set()).add(split[1])
        if not self._segments or isinstance(self._segments[-1], _Family):
            self._starts.append(self.size)
            self._segments.append([])
        self._segments[-1].append(name)
        self._explicit[name] = self.size
        self.size += 1
        return self.size - 1

    def add_family(self, stems: Sequence[str], first: int, steps: int, kind: str) -> int:
        start = self.size
        if steps == 0:
            return start
        for stem in stems:
            _check_name(stem, f"{kind} name stem")
        if len(set(stems)) != len(stems):
            raise ValueError(f"duplicate {kind} name stems {stems}")
        for stem in stems:
            clash = self._explicit_indexed.get(stem, ())
            if stem in self._stems or any(first <= i < first + steps for i in clash):
                raise ValueError(f"duplicate {kind} name stem '{stem}'")
        for k, stem in enumerate(stems):
            self._stems[stem] = (len(self._segments), k)
        self._starts.append(start)
        self._segments.append(_Family(tuple(stems), first, steps))
        self.size += len(stems) * steps
        return start

    def _family_index(self, name: str) -> int | None:
        split = _split_name(name)
        if split is None or split[0] not in self._stems:
            return None
        segment, k = self._stems[split[0]]
        family = self._segments[segment]
        t = split[1] - family.first
        if not 0 <= t < family.steps:
            return None
        return self._starts[segment] + t * len(family.stems) + k

    def index(self, name: str) -> int:
        pos = self._explicit.get(name)
        if pos is None:
            pos = self._family_index(name)
        if pos is None:
            raise KeyError(name)
        return pos

    def segment_end(self, pos: int) -> int:
        """One past the last position of the family or the run of explicit
        names that holds ``pos``."""
        segment = bisect.bisect_right(self._starts, pos)
        return self._starts[segment] if segment < len(self._starts) else self.size

    def name(self, pos: int) -> str:
        if not 0 <= pos < self.size:
            raise IndexError(pos)
        segment = bisect.bisect_right(self._starts, pos) - 1
        offset = pos - self._starts[segment]
        family = self._segments[segment]
        if isinstance(family, list):
            return family[offset]
        t, k = divmod(offset, len(family.stems))
        return f"{family.stems[k]}_t{family.first + t}"

    def names(self) -> list[str]:
        return list(map(operator.add, *(part.tolist() for part in self.pieces())))

    def pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """Each name as ``head + tail``, in two object arrays of shared
        strings: a family member's head is its ``{stem}_t`` prefix and its
        tail the cached text of its step; an explicit name is its own head,
        with tail ``""``.  Writers gather these instead of building names."""
        heads = np.empty(self.size, object)
        tails = np.empty(self.size, object)
        for start, family in zip(self._starts, self._segments):
            if isinstance(family, list):
                heads[start:start + len(family)] = family
                tails[start:start + len(family)] = ""
                continue
            shape = (family.steps, len(family.stems))
            end = start + family.steps * len(family.stems)
            heads[start:end].reshape(shape)[:] = [f"{stem}_t" for stem in family.stems]
            tails[start:end].reshape(shape)[:] = np.array(
                _step_texts(family.first, family.steps), object)[:, None]
        return heads, tails


@functools.lru_cache(maxsize=8)
def _step_texts(first: int, steps: int) -> tuple[str, ...]:
    """``str(t)`` of each step of a family, shared by the families of one
    horizon; the few ranges of a model keep the cache small."""
    return tuple(map(str, range(first, first + steps)))


class _Grow:
    """Append-only NumPy array with amortized doubling."""

    def __init__(self, dtype) -> None:
        self._buf = np.empty(16, dtype)
        self.size = 0

    def _reserve(self, extra: int) -> None:
        need = self.size + extra
        if need > len(self._buf):
            buf = np.empty(max(need, 2 * len(self._buf)), self._buf.dtype)
            buf[: self.size] = self._buf[: self.size]
            self._buf = buf

    def append(self, value) -> None:
        self._reserve(1)
        self._buf[self.size] = value
        self.size += 1

    def extend(self, values) -> None:
        values = np.asarray(values)
        self._reserve(len(values))
        self._buf[self.size: self.size + len(values)] = values
        self.size += len(values)

    @property
    def view(self) -> np.ndarray:
        out = self._buf[: self.size]
        out.flags.writeable = False
        return out

    def write(self, at: int, values: np.ndarray) -> None:
        """Overwrite entries ``at .. at + len(values) - 1`` in place."""
        self._buf[at: at + len(values)] = values


def _broadcast(value, steps: int, what: str) -> np.ndarray:
    arr = np.asarray(value, float)
    if arr.ndim and arr.shape != (steps,):
        raise ValueError(f"{what} has shape {arr.shape}, expected ({steps},)")
    out = np.broadcast_to(arr, (steps,))
    if not np.isfinite(out).all():
        raise ValueError(f"{what} must be finite")
    return out


class Model:
    """Mutable model builder; single-threaded per instance."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.objective_constant = 0.0
        self._cost = np.zeros(0)
        self._model_id = next(_model_counter)
        self._cols = _Names()
        self._rows = _Names()
        self._lo = _Grow(float)
        self._hi = _Grow(float)
        self._binary = _Grow(bool)
        self._row_nnz = _Grow(np.int64)
        self._row_rhs = _Grow(float)
        self._row_sense = _Grow(np.int8)
        self._term_col = _Grow(np.int32)
        self._term_val = _Grow(float)
        self._matrix: sparse.csr_matrix | None = None

    # -- variables --------------------------------------------------------

    def _new_columns(self, size: int, lo: float, hi: float, what: str) -> None:
        if lo < 0:
            raise ValueError(f"variable '{what}': lower bound must be >= 0")
        if lo > hi:
            raise ValueError(f"variable '{what}': lo {lo} > hi {hi}")
        if self._cols.size + size >= 2**31:
            raise ValueError("model exceeds 2**31 columns")
        self._matrix = None

    def add_var(
        self,
        name: str,
        domain: Domain = Domain.CONTINUOUS_NONNEG,
        lo: float = 0.0,
        hi: float = math.inf,
    ) -> VarRef:
        domain = Domain(domain)
        if domain == Domain.BINARY:
            lo, hi = 0.0, 1.0
        lo, hi = float(lo), float(hi)
        self._new_columns(1, lo, hi, name)
        vid = self._cols.add_explicit(name, "variable")
        self._lo.append(lo)
        self._hi.append(hi)
        self._binary.append(domain == Domain.BINARY)
        return VarRef(vid, name, domain, lo, hi, self._model_id)

    def add_binary(self, name: str) -> VarRef:
        return self.add_var(name, Domain.BINARY)

    def add_vars(self, stem: str, size: int, lo: float = 0.0) -> VarBlock:
        """Block of ``size`` continuous variables named
        ``{stem}_t0 .. {stem}_t{size-1}``, each in ``[lo, inf)``."""
        lo = float(lo)
        self._new_columns(size, lo, math.inf, f"{stem}_t*")
        start = self._cols.add_family((stem,), 0, size, "variable")
        self._lo.extend(np.full(size, lo))
        self._hi.extend(np.full(size, math.inf))
        self._binary.extend(np.zeros(size, bool))
        return VarBlock(self._model_id, stem, start, 0, size, lo)

    def _var(self, vid: int) -> VarRef:
        binary = bool(self._binary.view[vid])
        return VarRef(vid, self._cols.name(vid),
                      Domain.BINARY if binary else Domain.CONTINUOUS_NONNEG,
                      float(self._lo.view[vid]), float(self._hi.view[vid]), self._model_id)

    @property
    def variables(self) -> "_VariableView":
        return _VariableView(self)

    def var_by_name(self, name: str) -> VarRef:
        return self._var(self._cols.index(name))

    def var_names(self) -> list[str]:
        return self._cols.names()

    def var_name_pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """Every column name as ``head + tail`` in two object arrays: the
        ``{stem}_t`` prefix and the step's text for a block member, the name
        and ``""`` for an ``add_var`` column.  The strings are shared, not
        built per name."""
        return self._cols.pieces()

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bound of every column (read-only)."""
        return self._lo.view, self._hi.view

    def binary_mask(self) -> np.ndarray:
        return self._binary.view

    # -- constraints and objective ----------------------------------------

    def _check_owned(self, expr: LinExpr) -> None:
        if expr.model_id is not None and expr.model_id != self._model_id:
            raise ValueError("expression references variables of a foreign model")
        if expr.terms and max(expr.terms) >= self._cols.size:
            raise ValueError(
                f"expression references unregistered variable id {max(expr.terms)}"
            )

    def add_constraint(self, expr: LinExpr, sense: Sense, rhs: float, name: str) -> int:
        """Add the row ``expr sense rhs``; returns its index.

        The expression's constant is moved to the right-hand side, so
        ``x + 2 <= 5`` is stored, exported and solved as ``x <= 3``.
        """
        if isinstance(expr, VarRef):
            expr = LinExpr({expr.id: 1.0}, 0.0, expr.model_id)
        if not math.isfinite(rhs):
            raise ValueError(f"constraint '{name}': rhs must be finite")
        expr.validate_finite()
        self._check_owned(expr)
        sense = Sense(sense)
        row = self._rows.add_explicit(name, "constraint")
        self._append_row_terms(expr.normalized().terms)
        self._row_rhs.append(float(rhs) - expr.constant)
        self._row_sense.append(_SENSE_CODE[sense])
        self._matrix = None
        return row

    def add_constraints(
        self,
        stems: Sequence[str],
        steps: int,
        rows: Sequence[Sequence[tuple[object, object]]],
        senses: Sequence[Sense],
        rhs: float | Sequence[object] = 0.0,
        first: int = 0,
    ) -> int:
        """Add a family of ``steps`` x ``len(stems)`` rows; returns the index
        of its first row.

        Member ``k`` of step ``t`` is named ``{stems[k]}_t{first + t}`` and
        reads ``sum(coef * var) senses[k] rhs[k]`` over the terms
        ``rows[k]``.  A term pairs a block (or any sequence of ``steps``
        variables) or one variable, used at every step, with a scalar or
        per-step coefficient.  ``rhs`` is one number for every row, or one
        entry per stem, each a number or a per-step array.
        Rows are stored step by step, the members of one step in stem
        order, and keep their terms in the order given.  As with
        :meth:`LinExpr.add`, zero coefficients are dropped and a variable
        given twice in one row has its coefficients summed.
        """
        if isinstance(rhs, (int, float)):
            rhs = [rhs] * len(stems)
        if not (len(rows) == len(senses) == len(rhs) == len(stems)):
            raise ValueError("stems, rows, senses and rhs must have equal lengths")
        start = self._rows.size
        if steps == 0:
            return start
        cols, vals, widths = [], [], []
        for k, terms in enumerate(rows):
            for vars, coef in terms:
                model_id, ids = _column_ids(vars, self._model_id)
                if model_id != self._model_id:
                    raise ValueError("expression references variables of a foreign model")
                if not isinstance(vars, VarRef) and len(ids) != steps:
                    raise ValueError(f"{stems[k]}: term of {len(ids)} variables for {steps} steps")
                cols.append(np.broadcast_to(ids, (steps,)))
                vals.append(_broadcast(coef, steps, f"{stems[k]} coefficient"))
            widths.append(len(terms))
        col_mat = np.stack(cols, axis=1) if cols else np.empty((steps, 0), np.int64)
        val_mat = np.stack(vals, axis=1) if vals else np.empty((steps, 0))
        if col_mat.size and col_mat.max() >= self._cols.size:
            raise ValueError(f"{stems[0]}: references an unregistered variable")
        rhs_mat = np.stack([_broadcast(r, steps, f"{s} rhs") for s, r in zip(stems, rhs)],
                           axis=1)
        self._rows.add_family(stems, first, steps, "constraint")
        edges = np.concatenate([[0], np.cumsum(widths)])
        if any(
            w > 1 and (np.diff(np.sort(col_mat[:, a:b], axis=1), axis=1) == 0).any()
            for w, a, b in zip(widths, edges[:-1], edges[1:])
        ):
            self._add_summed_rows(col_mat, val_mat, edges)
        else:
            keep = val_mat != 0.0
            nnz = np.stack([keep[:, a:b].sum(axis=1) for a, b in zip(edges[:-1], edges[1:])],
                           axis=1)
            self._row_nnz.extend(nnz.ravel())
            self._term_col.extend(col_mat[keep])
            self._term_val.extend(val_mat[keep])
        self._row_rhs.extend(rhs_mat.ravel())
        self._row_sense.extend(np.tile([_SENSE_CODE[Sense(s)] for s in senses], steps))
        self._matrix = None
        return start

    def set_rhs(self, first: int, values) -> None:
        """Rewrite the right-hand sides of rows ``first``, ``first + 1``, ...
        in place, one per entry of ``values``.

        The rows must exist and lie in one family of
        :meth:`add_constraints` or one run of rows added by
        :meth:`add_constraint`, so that a wrong length cannot reach the next
        family's rows; the values must be finite.  Coefficients, senses and
        the cached :meth:`matrix` are kept, and the next solve or export
        reads the new values.
        """
        values = np.asarray(values, float)
        if values.ndim != 1:
            raise ValueError(f"rhs values have shape {values.shape}, expected one dimension")
        if not 0 <= first < self._rows.size:
            raise ValueError(f"row {first} is out of range for {self._rows.size} rows")
        end = self._rows.segment_end(first)
        if first + len(values) > end:
            raise ValueError(
                f"{len(values)} rhs values from row '{self._rows.name(first)}' run past "
                f"its family, which ends {end - first} rows later"
            )
        if not np.isfinite(values).all():
            raise ValueError("rhs values must be finite")
        self._row_rhs.write(first, values)

    def _append_row_terms(self, terms: Mapping[int, float]) -> None:
        self._row_nnz.append(len(terms))
        self._term_col.extend(np.fromiter(terms.keys(), np.int32, len(terms)))
        self._term_val.extend(np.fromiter(terms.values(), float, len(terms)))

    def _add_summed_rows(self, col_mat: np.ndarray, val_mat: np.ndarray,
                         edges: np.ndarray) -> None:
        """Rows with a repeated variable: accumulate exactly as LinExpr.add."""
        for t in range(col_mat.shape[0]):
            for a, b in zip(edges[:-1], edges[1:]):
                terms: dict[int, float] = {}
                _accumulate(terms, col_mat[t, a:b].tolist(), val_mat[t, a:b].tolist())
                self._append_row_terms(terms)

    @property
    def constraints(self) -> "_ConstraintView":
        return _ConstraintView(self)

    def constraint_by_name(self, name: str) -> Constraint:
        return self.constraints[self._rows.index(name)]

    def row_names(self) -> list[str]:
        return self._rows.names()

    def row_name_pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """Every row name as ``head + tail``, shared strings in two object
        arrays, as in :meth:`var_name_pieces`."""
        return self._rows.pieces()

    def matrix(self) -> sparse.csr_matrix:
        """Constraint coefficients, one row per constraint (possibly
        empty), terms of a row in the order they were added."""
        if self._matrix is None:
            nnz = self._row_nnz.view
            indptr = np.zeros(len(nnz) + 1, np.int64)
            np.cumsum(nnz, out=indptr[1:])
            self._matrix = sparse.csr_matrix(
                (self._term_val.view, self._term_col.view, indptr),
                shape=(self._rows.size, self._cols.size),
            )
        return self._matrix

    def row_sense(self) -> np.ndarray:
        """Sense code of every row, indexing :data:`SENSES`."""
        return self._row_sense.view

    def row_rhs(self) -> np.ndarray:
        """Right-hand side per row, the expression constant folded in."""
        return self._row_rhs.view

    def row_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Activity bounds per row: (-inf, rhs) for <=, (rhs, rhs) for =,
        (rhs, inf) for >=."""
        rhs, sense = self.row_rhs(), self.row_sense()
        return (np.where(sense == _SENSE_CODE[Sense.LE], -np.inf, rhs),
                np.where(sense == _SENSE_CODE[Sense.GE], np.inf, rhs))

    def rows_with_terms(self) -> tuple[np.ndarray, str | None]:
        """Indices of the rows that have terms, and the name of the first
        row without terms whose ``0 sense rhs`` misses by more than
        :data:`FEASIBILITY_TOL` (None when there is no such row).

        Rows without terms never reach a solver or an export: solvers and
        LP/MPS files take exactly the returned rows.  A named row makes
        the model infeasible.
        """
        indptr = self.matrix().indptr
        has_terms = indptr[1:] > indptr[:-1]
        empty = np.flatnonzero(~has_terms)
        lo, hi = (bound[empty] for bound in self.row_bounds())
        off = empty[(lo > FEASIBILITY_TOL) | (hi < -FEASIBILITY_TOL)]
        return (np.flatnonzero(has_terms),
                self._rows.name(int(off[0])) if len(off) else None)

    def minimize(self, objective: np.ndarray | LinExpr) -> None:
        """Minimize ``cost() @ x + objective_constant``.

        ``objective`` is a cost vector with one finite entry per column,
        which leaves the constant at 0, or an expression, whose terms are
        scattered into the vector and whose constant is kept.  A float
        vector is kept, not copied, and made read-only.  A column added
        later costs 0.
        """
        constant = 0.0
        if isinstance(objective, LinExpr):
            objective.validate_finite()
            self._check_owned(objective)
            constant, terms = objective.constant, objective.terms
            objective = np.zeros(self._cols.size)
            objective[list(terms)] = list(terms.values())
        cost = np.asarray(objective, float)
        if cost.shape != (self._cols.size,):
            raise ValueError(f"cost vector has shape {cost.shape}, expected ({self._cols.size},)")
        if not np.isfinite(cost).all():
            raise ValueError("cost vector must be finite")
        cost.flags.writeable = False
        self._cost, self.objective_constant = cost, float(constant)

    def cost(self) -> np.ndarray:
        """Objective coefficient of every column (read-only)."""
        missing = self._cols.size - len(self._cost)
        if missing:
            self._cost = np.concatenate([self._cost, np.zeros(missing)])
            self._cost.flags.writeable = False
        return self._cost

    def stats(self) -> dict[str, int]:
        return {
            "variables": self._cols.size,
            "binaries": int(np.count_nonzero(self._binary.view)),
            "constraints": self._rows.size,
        }


class _VariableView(Sequence):
    """``model.variables``: VarRef handles made on access."""

    def __init__(self, model: Model) -> None:
        self._model = model

    def __len__(self) -> int:
        return self._model._cols.size

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self[i] for i in range(*key.indices(len(self)))]
        i = key + len(self) if key < 0 else key
        if not 0 <= i < len(self):
            raise IndexError(key)
        return self._model._var(i)

    def __iter__(self) -> Iterator[VarRef]:
        model = self._model
        lo, hi = model.bounds()
        kinds = (Domain.CONTINUOUS_NONNEG, Domain.BINARY)
        for vid, (name, binary, low, high) in enumerate(
            zip(model.var_names(), model.binary_mask().tolist(), lo.tolist(), hi.tolist())
        ):
            yield VarRef(vid, name, kinds[binary], low, high, model._model_id)


class _ConstraintView(Sequence):
    """``model.constraints``: Constraint records made on access."""

    def __init__(self, model: Model) -> None:
        self._model = model

    def __len__(self) -> int:
        return self._model._rows.size

    def _make(self, row: int, name: str, cols, vals, sense: int, rhs: float) -> Constraint:
        expr = LinExpr(dict(zip(cols, vals)), 0.0, self._model._model_id)
        return Constraint(row, name, expr, SENSES[sense], rhs)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self[i] for i in range(*key.indices(len(self)))]
        i = key + len(self) if key < 0 else key
        if not 0 <= i < len(self):
            raise IndexError(key)
        mat = self._model.matrix()
        a, b = mat.indptr[i], mat.indptr[i + 1]
        return self._make(i, self._model._rows.name(i), mat.indices[a:b].tolist(),
                          mat.data[a:b].tolist(), int(self._model.row_sense()[i]),
                          float(self._model.row_rhs()[i]))

    def __iter__(self) -> Iterator[Constraint]:
        model = self._model
        mat = model.matrix()
        indptr = mat.indptr.tolist()
        cols, vals = mat.indices.tolist(), mat.data.tolist()
        for row, (name, sense, rhs) in enumerate(
            zip(model.row_names(), model.row_sense().tolist(), model.row_rhs().tolist())
        ):
            a, b = indptr[row], indptr[row + 1]
            yield self._make(row, name, cols[a:b], vals[a:b], sense, rhs)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solve.

    ``x`` is the solution in column order, a read-only float64 copy of
    the array given, or None when the solver returned no solution (an
    infeasible or unbounded model, or a limit hit before any incumbent
    was found).
    """

    status: Status
    objective: float
    x: np.ndarray | None
    solver_meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.x is not None:
            x = np.array(self.x, dtype=np.float64)
            x.flags.writeable = False
            object.__setattr__(self, "x", x)
        object.__setattr__(self, "solver_meta", dict(self.solver_meta))


def read_values(x: np.ndarray, vars) -> np.ndarray:
    """Values of a block or sequence of variables in the solution vector
    ``x``, as a new array."""
    if isinstance(vars, VarBlock):
        return x[vars.start: vars.start + vars.size].copy()
    return x[_column_ids(vars)[1]]


def constraint_violation(model: Model, x: np.ndarray) -> float:
    """Largest absolute constraint violation at the solution vector ``x``.

    ``A @ x`` sums the terms of each row in the order they were added and
    is held against :meth:`Model.row_rhs`.
    """
    lhs = model.matrix() @ x
    rhs = model.row_rhs()
    if not len(lhs):
        return 0.0
    sense = model.row_sense()
    gap = np.where(sense == 0, lhs - rhs, np.where(sense == 2, rhs - lhs, np.abs(lhs - rhs)))
    return float(max(0.0, gap.max()))
