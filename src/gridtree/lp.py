"""Solver-agnostic linear model and the CPLEX-LP dialect it is written in.

``MilpModel`` holds named variables, linear rows and a linear objective;
``write_lp`` renders it as LP text and ``parse_lp`` reads that text back.
The module needs only the standard library and ``gridtree.errors``, so the
``gridtree.milpsolve`` solver child can read a model without loading the
rest of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import BridgeError, ModelBuildError

__all__ = ["Variable", "Constraint", "MilpModel", "write_lp", "parse_lp"]


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str  # "binary" | "continuous"
    lb: Optional[float] = None
    ub: Optional[float] = None

    def effective_bounds(self) -> tuple[float, float]:
        if self.kind == "binary":
            return (0.0 if self.lb is None else self.lb, 1.0 if self.ub is None else self.ub)
        return (
            0.0 if self.lb is None else self.lb,
            math.inf if self.ub is None else self.ub,
        )


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple[tuple[float, str], ...]
    sense: str  # "<=" | ">=" | "="
    rhs: float


class MilpModel:
    """Linear objective + linear constraints over named variables."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self._by_name: dict[str, Variable] = {}
        self.constraints: list[Constraint] = []
        self.objective: tuple[tuple[float, str], ...] = ()
        self.objective_constant: float = 0.0

    def add_variable(self, name, kind, lb=None, ub=None):
        if name in self._by_name:
            raise ModelBuildError(f"duplicate variable {name}")
        var = Variable(name, kind, lb, ub)
        self.variables.append(var)
        self._by_name[name] = var
        return var

    def variable(self, name: str) -> Variable:
        return self._by_name[name]

    def has_variable(self, name: str) -> bool:
        return name in self._by_name

    def add_constraint(self, name, terms, sense, rhs):
        if sense not in ("<=", ">=", "="):
            raise ModelBuildError(f"bad sense {sense!r}")
        for _, var in terms:
            if var not in self._by_name:
                raise ModelBuildError(f"constraint {name} uses unknown variable {var}")
        self.constraints.append(Constraint(name, tuple(terms), sense, float(rhs)))

    def set_objective(self, terms, constant=0.0):
        self.objective = tuple(terms)
        self.objective_constant = float(constant)

    def binary_count(self) -> int:
        return sum(1 for v in self.variables if v.kind == "binary")

    def continuous_count(self) -> int:
        return sum(1 for v in self.variables if v.kind == "continuous")

    def objective_value(self, values: Mapping[str, float]) -> float:
        return self.objective_constant + sum(
            c * values.get(v, 0.0) for c, v in self.objective
        )

    def constraint_violations(self, values: Mapping[str, float], tol: float = 1e-6):
        """Names of constraints (and bound violations) not satisfied."""
        bad = []
        for con in self.constraints:
            lhs = sum(c * values.get(v, 0.0) for c, v in con.terms)
            if con.sense == "<=" and lhs > con.rhs + tol:
                bad.append(con.name)
            elif con.sense == ">=" and lhs < con.rhs - tol:
                bad.append(con.name)
            elif con.sense == "=" and abs(lhs - con.rhs) > tol:
                bad.append(con.name)
        for var in self.variables:
            lb, ub = var.effective_bounds()
            val = values.get(var.name, 0.0)
            if val < lb - tol or val > ub + tol:
                bad.append(f"bounds:{var.name}")
        return bad

    def _canonical(self):
        return (
            sorted((v.name, v.kind, v.effective_bounds()) for v in self.variables),
            sorted(
                (c.name, tuple(sorted((v, coef) for coef, v in c.terms)), c.sense, c.rhs)
                for c in self.constraints
            ),
            tuple(sorted((v, c) for c, v in self.objective)),
            self.objective_constant,
        )

    def __eq__(self, other):
        return isinstance(other, MilpModel) and self._canonical() == other._canonical()


# ---------------------------------------------------------------------------
# CPLEX-LP text
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _expr(terms, constant=0.0) -> str:
    parts = []
    for coef, name in sorted(terms, key=lambda t: t[1]):
        mag = abs(coef)
        body = name if mag == 1.0 else f"{_fmt(mag)} {name}"
        if not parts:
            parts.append(body if coef >= 0 else f"- {body}")
        else:
            parts.append(f"+ {body}" if coef >= 0 else f"- {body}")
    if constant:
        piece = _fmt(abs(constant))
        if not parts:
            parts.append(piece if constant > 0 else f"- {piece}")
        else:
            parts.append(f"+ {piece}" if constant > 0 else f"- {piece}")
    if not parts:
        parts.append("0")
    return " ".join(parts)


def _wrap(text: str, width: int = 72) -> list[str]:
    """Indented lines of at most ``width`` characters past the indent,
    broken between words; ``text`` holds words joined by single spaces."""
    if len(text) <= width:
        return [" " + text]
    words = text.split()
    lines, cur = [], ""
    for w in words:
        if cur and len(cur) + len(w) + 1 > width:
            lines.append(" " + cur)
            cur = w
        else:
            cur = f"{cur} {w}" if cur else w
    if cur:
        lines.append(" " + cur)
    return lines


# the only section headers write_lp writes and parse_lp reads; every other
# line is indented by one space
_MINIMIZE, _SUBJECT_TO, _BOUNDS, _BINARY, _END = _HEADERS = (
    "Minimize", "Subject To", "Bounds", "Binary", "End"
)


def write_lp(model: MilpModel) -> str:
    """Render the model as CPLEX-LP text.

    Coefficients carry 12 significant digits, so parse_lp(write_lp(m))
    equals m exactly when its coefficients are representable at that
    precision; for arbitrary doubles the export-parse-export cycle is
    idempotent instead (identical text on the second pass).
    """
    out = [f"\\ {model.name}", _MINIMIZE]
    out += _wrap("obj: " + _expr(model.objective, model.objective_constant))
    out.append(_SUBJECT_TO)
    for con in model.constraints:
        out += _wrap(f"{con.name}: {_expr(con.terms)} {con.sense} {_fmt(con.rhs)}")
    bounds = []
    for var in sorted(model.variables, key=lambda v: v.name):
        if var.kind == "binary":
            if var.lb is not None and var.lb == var.ub:
                bounds.append(f" {var.name} = {_fmt(var.lb)}")
            continue
        lb, ub = var.effective_bounds()
        if lb == 0.0 and ub == math.inf:
            continue
        if lb == ub:
            bounds.append(f" {var.name} = {_fmt(lb)}")
        elif lb == -math.inf and ub == math.inf:
            bounds.append(f" {var.name} free")
        else:
            lo = "-inf" if lb == -math.inf else _fmt(lb)
            hi = "inf" if ub == math.inf else _fmt(ub)
            bounds.append(f" {lo} <= {var.name} <= {hi}")
    if bounds:
        out.append(_BOUNDS)
        out += bounds
    binaries = sorted(v.name for v in model.variables if v.kind == "binary")
    if binaries:
        out.append(_BINARY)
        out += _wrap(" ".join(binaries))
    out.append(_END)
    return "\n".join(out) + "\n"


def _number(word: str, where: str) -> float:
    try:
        return float(word)
    except ValueError:
        raise BridgeError(f"expected a number, got {word!r} in LP text {where!r}") from None


def _linear(words: list[str], where: str) -> tuple[list[tuple[float, str]], float]:
    """Read ``[sign] [coef] name ...`` plus a trailing constant, as _expr writes it.

    ``sign`` is None until a ``+`` or ``-`` word is read, so a second sign
    in a row, a sign that ends the expression and a term or constant
    after the first with no sign before it are all errors.
    """
    terms, sign, coef = [], None, None
    for word in words:
        is_name = word[0].isalpha() or word[0] == "_"
        if coef is not None and not is_name:
            raise BridgeError(f"a number is not followed by a name in LP text {where!r}")
        if word in ("+", "-"):
            if sign is not None:
                raise BridgeError(f"two signs in a row in LP text {where!r}")
            sign = -1.0 if word == "-" else 1.0
        elif terms and sign is None and coef is None:
            raise BridgeError(f"no sign before {word!r} in LP text {where!r}")
        elif is_name:
            terms.append(((1.0 if coef is None else coef) * (sign or 1.0), word))
            sign, coef = None, None
        else:
            coef = _number(word, where)
    if coef is None:
        if sign is not None:
            raise BridgeError(f"a sign is not followed by a term in LP text {where!r}")
        return terms, 0.0
    return terms, (sign or 1.0) * coef


def parse_lp(text: str) -> MilpModel:
    """Read the LP dialect write_lp writes back into a model.

    Headers are unindented and come from ``_HEADERS``; text after ``\\`` is
    a comment.  In Minimize and Subject To a line whose first word ends in
    ``:`` opens a row and any other line continues it; a row reads
    ``name: expression sense rhs``.  Bounds lines are ``name = v``,
    ``lo <= name <= hi`` or ``name free``.  Anything else is a BridgeError.
    """
    found: dict[str, list[list[str]]] = {header: [] for header in _HEADERS}
    section = None
    for raw in text.splitlines():
        line = raw.split("\\")[0].rstrip()
        if not line:
            continue
        if not line[0].isspace():
            if line not in _HEADERS:
                raise BridgeError(f"unknown LP section {line!r}")
            if line == _END:
                break
            section = line
            continue
        words = line.split()
        if section is None:
            raise BridgeError(f"LP text before any section: {line!r}")
        if section in (_MINIMIZE, _SUBJECT_TO) and not words[0].endswith(":"):
            if not found[section]:
                raise BridgeError(f"LP line continues no row: {line!r}")
            found[section][-1] += words
        else:
            found[section].append(words)
    else:
        raise BridgeError("LP text has no End line")

    if len(found[_MINIMIZE]) != 1:
        raise BridgeError("LP text needs exactly one objective row")
    objective = _linear(found[_MINIMIZE][0][1:], " ".join(found[_MINIMIZE][0]))
    rows = []
    for words in found[_SUBJECT_TO]:
        row = " ".join(words)
        senses = [i for i, w in enumerate(words) if w in ("<=", ">=", "=")]
        if len(senses) != 1 or senses[0] != len(words) - 2:
            raise BridgeError(f"LP row is not `name: expression sense rhs`: {row!r}")
        terms, constant = _linear(words[1:-2], row)
        rows.append((words[0][:-1], terms, words[-2], _number(words[-1], row) - constant))
    bounds: dict[str, tuple[float, float]] = {}
    for words in found[_BOUNDS]:
        line = " ".join(words)
        if len(words) == 3 and words[1] == "=":
            bounds[words[0]] = (_number(words[2], line),) * 2
        elif len(words) == 5 and words[1] == words[3] == "<=":
            bounds[words[2]] = (_number(words[0], line), _number(words[4], line))
        elif len(words) == 2 and words[1] == "free":
            bounds[words[0]] = (-math.inf, math.inf)
        else:
            raise BridgeError(f"unsupported LP bounds line {line!r}")
    binaries = {name for words in found[_BINARY] for name in words}

    names = binaries | set(bounds) | {v for _, v in objective[0]}
    names.update(v for _, terms, _, _ in rows for _, v in terms)
    model = MilpModel(name="parsed")
    for name in sorted(names):
        kind = "binary" if name in binaries else "continuous"
        model.add_variable(name, kind, *bounds.get(name, (None, None)))
    for row in rows:
        model.add_constraint(*row)
    model.set_objective(*objective)
    return model
