"""Text <-> Expr conversion and the structure-file format.

Scalar grammar: rationals (integers and a/b), declared names, + - * / ^ with
integer exponents, parentheses, and exp/sinh/cosh/log calls.  Vector fields
extend the grammar with d/d<coord> basis tokens, recognized only in field
positions.  Floating-point literals are rejected.

Structure files are sectioned key = value text ([chart], [params], [frame] or
[algebra], [symmetry]), UTF-8, with '#' comments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import expr as ex
from .calculus import VectorField
from .errors import (
    DuplicateMode,
    ExprSyntaxError,
    MissingSection,
    UnknownSymbol,
)
from .expr import Chart, Expr, render_expr

_FUNCS = {"exp": ex.exp, "sinh": ex.sinh, "cosh": ex.cosh, "log": ex.log}

# Parenthesised groups, function calls and parenthesised exponents each open
# one level; the recursive-descent parser refuses input nested deeper, before
# Python's recursion limit would end it in a traceback.
MAX_NESTING = 100


# -- tokenizer ---------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER NAME OP END
    text: str
    line: int
    column: int


def _tokenize(text: str, line: int = 1, column: int = 1) -> list[_Token]:
    tokens = []
    i = 0
    ln, col = line, column
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            ln += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                raise ExprSyntaxError("floating-point literals are not supported", ln, col)
            tokens.append(_Token("NUMBER", text[i:j], ln, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("NAME", text[i:j], ln, col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token("OP", ch, ln, col))
            i += 1
            col += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", ln, col)
    tokens.append(_Token("END", "", ln, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], chart: Chart):
        self.tokens = tokens
        self.pos = 0
        self.chart = chart
        self.depth = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "END":
            self.pos += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.next()
        if tok.kind != "OP" or tok.text != text:
            raise ExprSyntaxError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                                  tok.line, tok.column)
        return tok

    def at_op(self, *texts: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.text in texts

    def nested(self, parse, opener: _Token):
        """parse() one nesting level deeper, up to MAX_NESTING levels."""
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {MAX_NESTING} levels",
                                  opener.line, opener.column)
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    # scalar grammar ---------------------------------------------------------

    def parse_scalar(self) -> Expr:
        e = self.parse_term()
        while self.at_op("+", "-"):
            op = self.next().text
            rhs = self.parse_term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def parse_term(self) -> Expr:
        e = self.parse_unary()
        while self.at_op("*", "/"):
            op = self.next().text
            rhs = self.parse_unary()
            e = e * rhs if op == "*" else e / rhs
        return e

    def parse_unary(self) -> Expr:
        sign = 1
        while self.at_op("+", "-"):
            if self.next().text == "-":
                sign = -sign
        e = self.parse_power()
        return e if sign == 1 else -e

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.at_op("^"):
            self.next()
            return base ** self.parse_exponent()
        return base

    def parse_exponent(self) -> int:
        sign = 1
        if self.at_op("("):
            k = self.nested(self.parse_exponent, self.next())
            self.expect_op(")")
            return k
        while self.at_op("+", "-"):
            if self.next().text == "-":
                sign = -sign
        tok = self.next()
        if tok.kind != "NUMBER":
            raise ExprSyntaxError("integer exponent expected", tok.line, tok.column)
        return sign * int(tok.text)

    def parse_atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "NUMBER":
            return self.chart.number(int(tok.text))
        if tok.kind == "NAME":
            if tok.text in _FUNCS:
                self.expect_op("(")
                arg = self.nested(self.parse_scalar, tok)
                self.expect_op(")")
                return _FUNCS[tok.text](arg)
            if not self.chart.has(tok.text):
                raise UnknownSymbol(
                    f"unknown identifier {tok.text!r} at line {tok.line}, column {tok.column}"
                )
            return self.chart.var(tok.text)
        if tok.kind == "OP" and tok.text == "(":
            e = self.nested(self.parse_scalar, tok)
            self.expect_op(")")
            return e
        raise ExprSyntaxError(f"unexpected token {tok.text or 'end of input'!r}",
                              tok.line, tok.column)

    # vector-field grammar ----------------------------------------------------

    def at_basis_token(self) -> bool:
        a, b, c = self.peek(0), self.peek(1), self.peek(2)
        return (
            a.kind == "NAME" and a.text == "d"
            and b.kind == "OP" and b.text == "/"
            and c.kind == "NAME" and c.text.startswith("d") and len(c.text) > 1
        )

    def parse_basis_token(self) -> int:
        tok = self.next()  # 'd'
        self.next()  # '/'
        dcoord = self.next()
        coord = dcoord.text[1:]
        if coord not in self.chart.coords:
            raise UnknownSymbol(
                f"unknown coordinate in basis vector d/d{coord} at line "
                f"{tok.line}, column {tok.column}"
            )
        return self.chart.coords.index(coord)

    def parse_field(self) -> VectorField:
        comps = [self.chart.zero() for _ in self.chart.coords]

        def add_term(sign: int):
            coeff = self.chart.one() * sign
            direction: Optional[int] = None
            expect_factor = True
            while True:
                if expect_factor:
                    if self.at_basis_token():
                        tok = self.peek()
                        if direction is not None:
                            raise ExprSyntaxError("two basis vectors in one term",
                                                  tok.line, tok.column)
                        direction = self.parse_basis_token()
                    else:
                        coeff = coeff * self.parse_power()
                    expect_factor = False
                    continue
                if self.at_op("*"):
                    self.next()
                    expect_factor = True
                    continue
                if self.at_op("/"):
                    self.next()
                    if self.at_basis_token():
                        tok = self.peek()
                        raise ExprSyntaxError("cannot divide by a basis vector",
                                              tok.line, tok.column)
                    coeff = coeff / self.parse_power()
                    continue
                break
            tok = self.peek()
            if direction is None:
                raise ExprSyntaxError("vector-field term lacks a d/d<coord> factor",
                                      tok.line, tok.column)
            comps[direction] = comps[direction] + coeff

        sign = 1
        while self.at_op("+", "-"):
            if self.next().text == "-":
                sign = -sign
        add_term(sign)
        while self.at_op("+", "-"):
            sign = 1
            while self.at_op("+", "-"):
                if self.next().text == "-":
                    sign = -sign
            add_term(sign)
        return VectorField(self.chart, tuple(comps))

    def finish(self):
        tok = self.peek()
        if tok.kind != "END":
            raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.column)


def parse_expr(text: str, chart: Chart, *, line: int = 1, column: int = 1) -> Expr:
    parser = _Parser(_tokenize(text, line, column), chart)
    e = parser.parse_scalar()
    parser.finish()
    return e


def parse_field(text: str, chart: Chart, *, line: int = 1, column: int = 1) -> VectorField:
    parser = _Parser(_tokenize(text, line, column), chart)
    v = parser.parse_field()
    parser.finish()
    return v


# -- rendering ---------------------------------------------------------------


def render_field(v: VectorField) -> str:
    parts = []
    for comp, coord in zip(v.components, v.chart.coords):
        text = render_expr(comp)
        if text == "0":
            continue
        if text == "1":
            term = f"d/d{coord}"
        elif text == "-1":
            term = f"-d/d{coord}"
        else:
            if " + " in text or " - " in text:
                text = f"({text})"
            term = f"{text}*d/d{coord}"
        parts.append(term)
    if not parts:
        return "0*d/d" + v.chart.coords[0]
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out


# -- structure files ---------------------------------------------------------


STRUCTURE_KEYS = ("c011", "c012", "c021", "c022", "c121", "c122")


@dataclass
class StructureDefinition:
    """A parsed structure file: chart plus either a coordinate frame or the
    six constant structure functions, with optional symmetry fields."""

    chart: Chart
    mode: str  # "frame" | "algebra"
    x1: Optional[VectorField] = None
    x2: Optional[VectorField] = None
    structure_constants: Optional[dict[str, Expr]] = None
    symmetry_fields: tuple[tuple[str, VectorField], ...] = ()
    source_name: str = "<memory>"


_KNOWN_SECTIONS = {"chart", "params", "frame", "algebra", "symmetry"}


def _split_sections(text: str):
    sections: dict[str, list[tuple[int, str, str, int]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip().lower()
            if name not in _KNOWN_SECTIONS:
                raise ExprSyntaxError(f"unknown section [{name}]", lineno, 1)
            if name in sections:
                raise ExprSyntaxError(f"duplicate section [{name}]", lineno, 1)
            sections[name] = []
            current = name
            continue
        if current is None:
            raise ExprSyntaxError("content before any section header", lineno, 1)
        if "=" not in line:
            raise ExprSyntaxError("expected key = value", lineno, 1)
        key, value = line.split("=", 1)
        value_col = line.index("=") + 2
        sections[current].append((lineno, key.strip(), value.strip(), value_col))
    return sections


def _name_list(value: str) -> tuple[str, ...]:
    names = tuple(n.strip() for n in value.split(",") if n.strip())
    return names


def parse_structure_file(text: str, source_name: str = "<memory>") -> StructureDefinition:
    sections = _split_sections(text)

    coords: tuple[str, ...] = ("x", "y", "z")
    params: tuple[str, ...] = ()
    for lineno, key, value, col in sections.get("chart", []):
        if key == "coords":
            coords = _name_list(value)
        else:
            raise ExprSyntaxError(f"unknown chart key {key!r}", lineno, 1)
    for lineno, key, value, col in sections.get("params", []):
        if key == "names":
            params = _name_list(value)
        else:
            raise ExprSyntaxError(f"unknown params key {key!r}", lineno, 1)

    has_frame = "frame" in sections
    has_algebra = "algebra" in sections
    if has_frame and has_algebra:
        raise DuplicateMode("structure file declares both [frame] and [algebra]")
    if not has_frame and not has_algebra:
        raise MissingSection("structure file needs a [frame] or an [algebra] section")

    if has_frame:
        if len(coords) != 3:
            raise ExprSyntaxError("coordinate frames require exactly three coordinates")
        chart = Chart(coords, params)
        fields: dict[str, VectorField] = {}
        for lineno, key, value, col in sections["frame"]:
            if key not in ("X1", "X2"):
                raise ExprSyntaxError(f"unknown frame key {key!r}", lineno, 1)
            fields[key] = parse_field(value, chart, line=lineno, column=col)
        if "X1" not in fields or "X2" not in fields:
            raise MissingSection("[frame] must define X1 and X2")
        defn = StructureDefinition(chart, "frame", x1=fields["X1"], x2=fields["X2"],
                                   source_name=source_name)
    else:
        chart = Chart((), params) if len(coords) == 0 else Chart(coords, params)
        const_chart = Chart((), params)
        consts: dict[str, Expr] = {}
        for lineno, key, value, col in sections["algebra"]:
            if key not in STRUCTURE_KEYS:
                raise ExprSyntaxError(f"unknown algebra key {key!r}", lineno, 1)
            consts[key] = parse_expr(value, const_chart, line=lineno, column=col)
        for key in STRUCTURE_KEYS:
            consts.setdefault(key, const_chart.zero())
        defn = StructureDefinition(const_chart, "algebra", structure_constants=consts,
                                   source_name=source_name)

    sym_fields = []
    for lineno, key, value, col in sections.get("symmetry", []):
        if defn.mode != "frame":
            raise ExprSyntaxError("[symmetry] requires a coordinate frame", lineno, 1)
        sym_fields.append((key, parse_field(value, defn.chart, line=lineno, column=col)))
    defn.symmetry_fields = tuple(sym_fields)

    return defn
