"""The four-term community objective.

Total cost = levelized investment (first stage, deterministic)
           + expected operation + carbon + slack penalties (second stage,
             probability weighted per scenario).

This is the one module that pairs a flow with a price.  Each
``emit_*_cost`` function prices the columns of one owner (a building or
the community) and returns terms: column indices and coefficients as two
arrays, in the order they are accumulated; a column may appear more than
once.  The planner sums the terms into the model's one cost vector
(:meth:`~communityplan.milp.Model.minimize`) and prices a plan by the
same terms at the solution (:func:`terms_value`).

Powers are multiplied by the step length wherever they meet a price, so
every term is a EUR amount regardless of the time resolution.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field, fields
from typing import ClassVar, Iterable, Mapping, Sequence

import numpy as np

from .core import EconomicProfile, check_keys, series_head
from .devices import DesignRefs
from .milp import VarRef, _column_ids

__all__ = [
    "annuity_factor",
    "emit_investment_cost",
    "emit_community_cost",
    "emit_building_cost",
    "terms_value",
    "ObjectiveBreakdown",
]

Terms = tuple[np.ndarray, np.ndarray]  # column indices, coefficients


def annuity_factor(r: float, tau: float) -> float:
    """Levelization factor r / (1 - (1+r)^-tau) of a lifetime-tau asset.

    Approaches r for long lifetimes (perpetuity) and 1 + r for tau = 1.
    """
    if r <= 0:
        raise ValueError(f"discount rate must be > 0, got {r}")
    if tau < 1:
        raise ValueError(f"lifetime must be >= 1 year, got {tau}")
    if tau == 1:
        return 1.0 + r  # algebraic identity r(1+r)/r, exact in floats
    return r / (1.0 - (1.0 + r) ** (-tau))


def emit_investment_cost(designs: Iterable[DesignRefs], r: float) -> Terms:
    """Levelized investment of one entity's ``designs``: (size price *
    design + base price * chi) times the annuity factor of each unit's
    lifetime."""
    ids: list[int] = []
    coefs: list[float] = []
    for design in designs:
        for spec, design_var in design.entries:
            factor = annuity_factor(r, spec.lifetime_years)
            ids += [design_var.id, design.chi.id]
            coefs += [spec.size_price * factor, spec.base_price * factor]
    return np.array(ids, np.int64), np.array(coefs, float)


def emit_community_cost(hv_import: Sequence[VarRef], s_mv: VarRef, economic: EconomicProfile,
                        step_hours: float, slack_price: float) -> dict[str, Terms]:
    """The community's terms in one scenario, keyed by the second-stage
    names of :class:`ObjectiveBreakdown`: electricity bought from the HV
    grid (operation; it carries no carbon, and LV exports earn nothing) and
    the MV slack, priced high enough that a slack only activates when the
    problem is otherwise infeasible."""
    ids = _column_ids(hv_import)[1]
    return {"o_opr": (ids, series_head(economic.p_el, len(ids), "p_el") * step_hours),
            "o_co2": (np.zeros(0, np.int64), np.zeros(0)),
            "o_slk": (np.array([s_mv.id]), np.array([float(slack_price)]))}


def emit_building_cost(gas: Sequence[VarRef], s_lv: VarRef, economic: EconomicProfile,
                       step_hours: float, slack_price: float) -> dict[str, Terms]:
    """One building's terms in one scenario, keyed as those of
    :func:`emit_community_cost`: the gas it burns (operation and carbon)
    and its LV slack."""
    ids = _column_ids(gas)[1]
    return {"o_opr": (ids, series_head(economic.p_gas, len(ids), "p_gas") * step_hours),
            "o_co2": (ids, series_head(economic.p_co2, len(ids), "p_co2") * step_hours),
            "o_slk": (np.array([s_lv.id]), np.array([float(slack_price)]))}


def terms_value(terms: Terms, x: np.ndarray) -> float:
    """The EUR amount of ``terms`` at the solution vector ``x``."""
    ids, coefs = terms
    return float(coefs @ x[ids])


def _json_key(name: str) -> str:
    """``O_opr`` for the term ``o_opr``."""
    return "O" + name[1:]


def _total(first: float, rest: Iterable[float]) -> float:
    """``first`` plus each of ``rest``, added left to right."""
    return functools.reduce(operator.add, rest, first)


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """EUR decomposition of a solved plan.

    ``o_tot`` always equals ``o_inv_lvl`` plus the probability-weighted
    second-stage sums; :meth:`identity_gap` exposes the residual of that
    identity for verification against the solver objective.  The
    second-stage terms are those of ``_SECOND_STAGE``, which are also
    the keys of each ``per_scenario`` entry; :meth:`as_dict` writes every
    term ``o_*`` as ``O_*``.
    """

    _SECOND_STAGE: ClassVar[tuple[str, ...]] = ("o_opr", "o_co2", "o_slk")

    o_inv_lvl: float
    o_opr: float
    o_co2: float
    o_slk: float
    o_tot: float
    per_scenario: Mapping[str, Mapping[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "per_scenario", {k: dict(v) for k, v in self.per_scenario.items()}
        )

    @classmethod
    def _terms(cls) -> list[str]:
        """The names of the fields that hold one EUR term each."""
        return [f.name for f in fields(cls) if f.name.startswith("o_")]

    @classmethod
    def from_terms(
        cls,
        o_inv: float,
        per_scenario: Mapping[str, Mapping[str, float]],
        probs: Mapping[str, float],
    ) -> "ObjectiveBreakdown":
        o_inv = float(o_inv)
        per_scenario = {
            sid: {name: float(value) for name, value in vals.items()}
            for sid, vals in per_scenario.items()
        }
        sums = {
            name: sum(probs[s] * v[name] for s, v in per_scenario.items())
            for name in cls._SECOND_STAGE
        }
        return cls(
            o_inv_lvl=o_inv,
            **sums,
            o_tot=_total(o_inv, sums.values()),
            per_scenario=per_scenario,
        )

    def identity_gap(self) -> float:
        """Relative residual of o_tot against its recomputed parts."""
        total = _total(self.o_inv_lvl, (getattr(self, n) for n in self._SECOND_STAGE))
        scale = max(abs(self.o_tot), 1.0)
        return abs(total - self.o_tot) / scale

    def as_dict(self) -> dict:
        out = {_json_key(name): getattr(self, name) for name in self._terms()}
        out["per_scenario"] = {
            sid: {_json_key(name): vals[name] for name in self._SECOND_STAGE}
            for sid, vals in self.per_scenario.items()
        }
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "ObjectiveBreakdown":
        """The breakdown of :meth:`as_dict` data; ValueError names a missing
        or unknown key of the breakdown or of a ``per_scenario`` entry."""
        keys = [*(_json_key(name) for name in cls._terms()), "per_scenario"]
        check_keys(data, keys, keys, "breakdown")
        second_stage = [_json_key(name) for name in cls._SECOND_STAGE]
        for sid, vals in data["per_scenario"].items():
            check_keys(vals, second_stage, second_stage, f"breakdown: per_scenario: {sid}")
        return cls(
            **{name: float(data[_json_key(name)]) for name in cls._terms()},
            per_scenario={
                sid: {name: float(vals[_json_key(name)]) for name in cls._SECOND_STAGE}
                for sid, vals in data["per_scenario"].items()
            },
        )
