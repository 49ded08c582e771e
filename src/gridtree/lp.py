"""Solver-agnostic linear model and the CPLEX-LP dialect it is written in.

``MilpModel`` holds named variables, linear rows and a linear objective, and
``write_lp`` renders it as LP text.  ``read_lp`` reads that text by one grammar,
its name rule compiled once: ``parse_lp`` builds a model from its reading, the
``gridtree.milpsolve`` solver child counts it.  Needing only the standard library
and ``gridtree.errors``, it loads neither ``dataclasses`` nor more of the package.
"""

from __future__ import annotations

import math
import re
from typing import Mapping, NamedTuple, Optional

from .errors import BridgeError, ModelBuildError

__all__ = ["Variable", "Constraint", "MilpModel", "write_lp", "parse_lp", "read_lp", "read_terms"]


class Variable(NamedTuple):
    name: str
    kind: str  # "binary" | "continuous"
    lb: Optional[float] = None
    ub: Optional[float] = None

    def effective_bounds(self) -> tuple[float, float]:
        ub = 1.0 if self.kind == "binary" else math.inf
        return (0.0 if self.lb is None else self.lb, ub if self.ub is None else self.ub)


class Constraint(NamedTuple):
    name: str
    terms: tuple[tuple[float, str], ...]
    sense: str  # "<=" | ">=" | "="
    rhs: float


_VIOLATION_TOL = 1e-6


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

    def objective_value(self, values: Mapping[str, float]) -> float:
        return self.objective_constant + sum(c * values.get(v, 0.0) for c, v in self.objective)

    def constraint_violations(self, values: Mapping[str, float]):
        """Names of constraints (and bound violations) not satisfied."""
        bad = []
        for con in self.constraints:
            lhs = sum(c * values.get(v, 0.0) for c, v in con.terms)
            if (con.sense == "<=" and lhs > con.rhs + _VIOLATION_TOL
                    or con.sense == ">=" and lhs < con.rhs - _VIOLATION_TOL
                    or con.sense == "=" and abs(lhs - con.rhs) > _VIOLATION_TOL):
                bad.append(con.name)
        for var in self.variables:
            lb, ub = var.effective_bounds()
            val = values.get(var.name, 0.0)
            if val < lb - _VIOLATION_TOL or val > ub + _VIOLATION_TOL:
                bad.append(f"bounds:{var.name}")
        return bad

    def _canonical(self):
        return (sorted((v.name, v.kind, v.effective_bounds()) for v in self.variables),
                sorted((c.name, tuple(sorted((v, coef) for coef, v in c.terms)), c.sense, c.rhs)
                       for c in self.constraints),
                tuple(sorted((v, c) for c, v in self.objective)), self.objective_constant)

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


_LINE_WIDTH = 72


def _wrap(text: str) -> list[str]:
    """Indented lines of at most ``_LINE_WIDTH`` characters past the
    indent, broken between words; ``text`` holds words joined by single
    spaces."""
    if len(text) <= _LINE_WIDTH:
        return [" " + text]
    words = text.split()
    lines, cur = [], ""
    for w in words:
        if cur and len(cur) + len(w) + 1 > _LINE_WIDTH:
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


# The dialect's grammar: a number class, a name class, a regex per line form and the
# name rule.  A number is an ASCII decimal as C's strtod reads it (Python's float also
# reads "1_0", "nan" and non-ASCII digits, which HiGHS's reader rejects).  A name starts
# with a word character but a decimal digit (a letter, _, ² or Ⅰ, as in HiGHS), holds no
# operator and, by the rule, is no LP keyword in any case and starts unlike inf and nan.
_KEYWORDS = ("minimize minimum min maximize maximum max st s.t. bounds bound free binary "
             "binaries bin general generals gen integer integers semis semi sos end").split()
_OPERATORS = r"+\-*/^<>=:\[\]"
_NUMBER = r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"
_NAME = rf"[^\W\d][^\s{_OPERATORS}]*"
_BOUND = rf"-?inf|{_NUMBER}"
_TERM = rf"(?:{_NAME}|{_NUMBER}\s+{_NAME})"
# [sign] term, sign term ..., sign constant; or [sign] constant; or nothing.  A row's
# constant is zero: other LP readers drop it instead of moving it to the rhs.
_EXPRESSION = (rf"(?:\s+(?P<terms>(?:[-+]\s+)?{_TERM}(?:\s+[-+]\s+{_TERM})*))?"
               r"(?:\s+(?P<constant>(?(terms)[-+]\s+|(?:[-+]\s+)?)%s))?")  # % its number class
_DECIMAL, _WORD = re.compile(_NUMBER), re.compile(_NAME)
_OBJECTIVE = re.compile(rf"\s*(?P<name>{_NAME}):" + _EXPRESSION % _NUMBER)
_ZERO = r"[-+]?(?:0+\.?0*|\.0+)(?:[eE][-+]?[0-9]+)?"
_ROW = re.compile(rf"^\s*(?P<name>{_NAME}):{_EXPRESSION % _ZERO}"
                  rf"\s+(?P<sense><=|>=|=)\s+(?P<rhs>{_NUMBER})$", re.M)
_BOUNDS_LINE = re.compile(rf"\s*(?:(?P<lo>{_BOUND})\s+<=\s+)?(?P<name>{_NAME})(?(lo)\s+<=\s+"
                          rf"(?P<hi>{_BOUND})|(?:\s+=\s+(?P<value>{_BOUND})|\s+free))")
_TERMS = re.compile(rf"\s*(?:([-+])\s+)?(?:({_NUMBER})\s+)?({_NAME})")  # of a matched expression
# the rule, at the start of each word once _SPACES puts a newline before it; the search
# starts at the first word _SCREEN marks with "!", one that starts as a reserved word can
_INITIALS = "".join(sorted({word[0] for word in _KEYWORDS} | {"i", "n"}))
_RESERVED = re.compile(rf"\n(?ai:(?=[{_INITIALS}])(?:"
                       rf"(?:{'|'.join(map(re.escape, _KEYWORDS))})(?![^\s{_OPERATORS}])|inf|nan))")
_SPACES = dict.fromkeys([*range(9, 14), *range(28, 33), 133, 160, 5760, *range(8192, 8203),
                         8232, 8233, 8239, 8287, 12288], "\n")  # each str.isspace character
_SCREEN = {**_SPACES, **dict.fromkeys(map(ord, _INITIALS + _INITIALS.upper()), "!")}
_COMMENT = re.compile(r"\\[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")  # to the end of its line
# the first pair of words (Sign, Number, Variable name) or end that breaks the rules
_MISREAD = re.compile(r"(?P<number>N[SN])|(?P<signs>SS)|(?P<unsigned>V[VN])|(?P<dangling>S$)")
_MISREADINGS = {"number": "a number is not followed by a name", "signs": "two signs in a row",
                "unsigned": "no sign before {!r}", "dangling": "a sign is not followed by a term"}


def _reserved(text: str) -> bool:
    """Whether LP readers read a word of ``text`` as a keyword or a number."""
    first = ("\n" + text).translate(_SCREEN).find("\n!")
    return first >= 0 and _RESERVED.search("\n" + text.translate(_SPACES), first) is not None


def _name(word: str):
    if not _WORD.match(word):
        raise BridgeError(f"LP name {word!r} does not start with a letter or _")
    if not _WORD.fullmatch(word) or _reserved(word):
        raise BridgeError(f"LP readers read {word!r} as a keyword, a number or an operator")


def _number(word: str, where: str) -> float:
    if not _DECIMAL.fullmatch(word):
        raise BridgeError(f"expected a number, got {word!r} in LP text {where!r}")
    return float(word)


def _reject(line: str, section: str):
    """Raise why the grammar rejects ``line`` of ``section``: the first rule it breaks."""
    words = line.split()
    line = " ".join(words)
    if section == _BOUNDS:  # n stands for a name and v for a bound value
        shape = {2: "n free", 3: "n = v", 5: "v <= n <= v"}.get(len(words), "").split()
        if shape and all(part in ("n", "v") or word == part for word, part in zip(words, shape)):
            for word, part in zip(words, shape):
                if part == "n":
                    _name(word)
                elif part == "v" and word not in ("inf", "-inf"):
                    _number(word, line)
        raise BridgeError(f"unsupported LP bounds line {line!r}")
    if section == _SUBJECT_TO:
        if [i for i, word in enumerate(words) if word in ("<=", ">=", "=")] != [len(words) - 2]:
            raise BridgeError(f"LP row is not `name: expression sense rhs`: {line!r}")
        _number(words[-1], line)
        del words[-2:]
    _name(words[0][:-1])
    kinds = "".join("S" if word in ("+", "-") else "V" if _WORD.match(word) else "N"
                    for word in words[1:])
    misread = _MISREAD.search(kinds)
    if misread:
        message = _MISREADINGS[misread.lastgroup].format(words[misread.end()])
        raise BridgeError(f"{message} in LP text {line!r}")
    for word, kind in zip(words[1:], kinds):
        if kind == "V":
            _name(word)
        elif kind == "N":
            _number(word, line)
    if section == _SUBJECT_TO and kinds.endswith("N"):
        raise BridgeError(f"LP row has a constant on its left side: {line!r}")
    raise BridgeError(f"LP row is not `name: expression sense rhs`: {line!r}")


def read_terms(text: Optional[str]) -> list[tuple[float, str]]:
    """The (coefficient, name) terms of an expression the grammar matched."""
    return [(-float(coef or 1) if sign == "-" else float(coef or 1), name)
            for sign, coef, name in _TERMS.findall(text or "")]


def _rows(lines: list[str]):
    """The rows' (name, terms, constant, sense, rhs) text, 1000 rows alive at a time."""
    for start in range(0, len(lines), 1000):
        chunk = lines[start:start + 1000]
        text = "\n".join(chunk)
        rows = _ROW.findall(text)
        if len(rows) < len(chunk) or _reserved(text):
            _reject(next(line for line in chunk if not _ROW.fullmatch(line) or _reserved(line)),
                    _SUBJECT_TO)
        yield from rows


def read_lp(text: str):
    """The grammar's one pass over ``text``: the objective's (terms, constant),
    an iterator over the rows' text, bounds by name and the binaries.  ``\\``
    starts a comment, End ends the text, and a line whose first word does not
    end in ``:`` continues the row above it."""
    found: dict[str, list[str]] = {header: [] for header in _HEADERS}
    lines = rows = None
    for line in _COMMENT.sub("", text).splitlines():
        line = line.rstrip()
        if not line:
            continue
        if lines is found[_END] and line != _END:
            raise BridgeError(f"LP text after End: {line!r}")
        if not line[0].isspace():
            if line not in _HEADERS:
                raise BridgeError(f"unknown LP section {line!r}")
            lines, rows = found[line], line in (_MINIMIZE, _SUBJECT_TO)
        elif lines is None:
            raise BridgeError(f"LP text before any section: {line!r}")
        elif rows and not line.split(None, 1)[0].endswith(":"):
            if not lines:
                raise BridgeError(f"LP line continues no row: {line!r}")
            lines[-1] += line
        else:
            lines.append(line)
    if lines is not found[_END]:
        raise BridgeError("LP text has no End line")
    if len(found[_MINIMIZE]) != 1:
        raise BridgeError("LP text needs exactly one objective row")
    line = found[_MINIMIZE][0]
    m = not _reserved(line) and _OBJECTIVE.fullmatch(line) or _reject(line, _MINIMIZE)
    matches = [_BOUNDS_LINE.fullmatch(line) for line in found[_BOUNDS]]
    if not all(matches) or _reserved(" ".join(b["name"] for b in matches)):
        _reject(next(line for line, b in zip(found[_BOUNDS], matches)
                     if not b or _reserved(b["name"])), _BOUNDS)
    binaries = set(" ".join(found[_BINARY]).split())
    if not all(map(_WORD.fullmatch, binaries)) or _reserved(" ".join(binaries)):
        for name in " ".join(found[_BINARY]).split():
            _name(name)
    *sign, constant = (m["constant"] or "0").split()
    objective = read_terms(m["terms"]), -float(constant) if sign == ["-"] else float(constant)
    bounds = {b["name"]: (float(b["value"] or b["lo"] or "-inf"),
                          float(b["value"] or b["hi"] or "inf")) for b in matches}
    for name, bound in bounds.items():
        # write_lp only fixes a binary; HiGHS rejects or misreads other bounds
        if name in binaries and bound not in ((0.0, 0.0), (1.0, 1.0)):
            raise BridgeError(f"LP binary {name!r} has bounds other than = 0 or = 1")
    return objective, _rows(found[_SUBJECT_TO]), bounds, binaries


def parse_lp(text: str) -> MilpModel:
    """Read the LP dialect write_lp writes, the grammar compiled above, back
    into a model; anything else is a BridgeError."""
    objective, rows, bounds, binaries = read_lp(text)
    rows = [(name, read_terms(terms), sense, float(rhs)) for name, terms, _, sense, rhs in rows]
    names = binaries | bounds.keys() | {name for _, name in objective[0]}
    names.update(name for _, terms, _, _ in rows for _, name in terms)
    model = MilpModel(name="parsed")
    for name in sorted(names):
        model.add_variable(name, "binary" if name in binaries else "continuous",
                           *bounds.get(name, (None, None)))
    for row in rows:
        model.add_constraint(*row)
    model.set_objective(*objective)
    return model
