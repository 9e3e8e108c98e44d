"""Recursive-descent parser and jet evaluator for component expressions.

Grammar (whitespace insensitive)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' base)?
    base   := number | ident | ident '(' expr ')' | '(' expr ')' | '-' factor

'^' binds tighter than unary minus, so -t1^2 parses as -(t1^2).
Chained exponents (a^b^c) are rejected; parenthesize instead.
Identifiers are t1, t2, a function name from the elementary set, or a
declared parameter.  Exponents must be constant (no t1/t2 below '^').
"""

from __future__ import annotations

from dataclasses import dataclass

from . import jets
from .errors import ExprSyntaxError, SingularEvaluationError

FUNCTIONS = set(jets.ELEMENTARY_FUNCTIONS)


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 0 for t1, 1 for t2


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/', '^'
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Num | Var | Param | Neg | BinOp | Call


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return ("eof", "", self.pos)
        ch = self.text[self.pos]
        if ch in "+-*/^()":
            return ("op", ch, self.pos)
        if ch.isdigit() or ch == ".":
            j = self.pos
            seen_e = False
            while j < len(self.text):
                c = self.text[j]
                if c.isdigit() or c == ".":
                    j += 1
                elif c in "eE" and not seen_e and j + 1 < len(self.text) \
                        and (self.text[j + 1].isdigit()
                             or self.text[j + 1] in "+-"):
                    seen_e = True
                    j += 2 if self.text[j + 1] in "+-" else 1
                else:
                    break
            return ("num", self.text[self.pos:j], self.pos)
        if ch.isalpha() or ch == "_":
            j = self.pos
            while j < len(self.text) and (self.text[j].isalnum()
                                          or self.text[j] == "_"):
                j += 1
            return ("ident", self.text[self.pos:j], self.pos)
        raise ExprSyntaxError(f"unexpected character {ch!r}", self.pos)

    def take(self):
        kind, text, pos = self.peek()
        self.pos = pos + len(text)
        return kind, text, pos


class _Parser:
    def __init__(self, text):
        self.tok = _Tokenizer(text)

    def parse(self):
        e = self.expr()
        kind, text, pos = self.tok.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected trailing input {text!r}", pos)
        return e

    def expr(self):
        left = self.term()
        while True:
            kind, text, _ = self.tok.peek()
            if kind == "op" and text in "+-":
                self.tok.take()
                left = BinOp(text, left, self.term())
            else:
                return left

    def term(self):
        left = self.factor()
        while True:
            kind, text, _ = self.tok.peek()
            if kind == "op" and text in "*/":
                self.tok.take()
                left = BinOp(text, left, self.factor())
            else:
                return left

    def factor(self):
        base = self.base()
        kind, text, pos = self.tok.peek()
        if kind == "op" and text == "^":
            self.tok.take()
            exponent = self.base()
            kind, text, pos = self.tok.peek()
            if kind == "op" and text == "^":
                raise ExprSyntaxError(
                    "chained '^' is ambiguous, use parentheses", pos)
            return BinOp("^", base, exponent)
        return base

    def base(self):
        kind, text, pos = self.tok.take()
        if kind == "num":
            try:
                return Num(float(text))
            except ValueError:
                raise ExprSyntaxError(f"bad number {text!r}", pos) from None
        if kind == "op" and text == "-":
            return Neg(self.factor())
        if kind == "op" and text == "(":
            e = self.expr()
            kind, text, pos = self.tok.take()
            if text != ")":
                raise ExprSyntaxError("expected ')'", pos)
            return e
        if kind == "ident":
            nxt_kind, nxt_text, _ = self.tok.peek()
            if nxt_kind == "op" and nxt_text == "(":
                if text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {text!r}", pos)
                self.tok.take()
                arg = self.expr()
                kind2, text2, pos2 = self.tok.take()
                if text2 != ")":
                    raise ExprSyntaxError("expected ')'", pos2)
                return Call(text, arg)
            if text == "t1":
                return Var(0)
            if text == "t2":
                return Var(1)
            return Param(text)
        raise ExprSyntaxError(f"expected a value, got {text!r}", pos)


def parse(text):
    """Parse expression text into an AST."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text).parse()


def to_string(e):
    """Render an AST back to parseable text (parse(to_string(e)) == e)."""
    def prec(node):
        if isinstance(node, BinOp):
            return {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}[node.op]
        if isinstance(node, Neg):
            return 3
        return 9

    def wrap(node, minimum):
        s = to_string(node)
        return f"({s})" if prec(node) < minimum else s

    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return "t1" if e.index == 0 else "t2"
    if isinstance(e, Param):
        return e.name
    if isinstance(e, Neg):
        return "-" + wrap(e.arg, 3)
    if isinstance(e, Call):
        return f"{e.fn}({to_string(e.arg)})"
    if isinstance(e, BinOp):
        p = prec(e)
        if e.op == "^":
            # '^' is non-associative; parenthesize any compound child
            return f"{wrap(e.left, 9)}^{wrap(e.right, 9)}"
        # binary ops parse left-associative: right child binds tighter
        return f"{wrap(e.left, p)} {e.op} {wrap(e.right, p + 1)}"
    raise TypeError(f"not an expression node: {e!r}")


def substitute(e, replacement):
    """The expression with t1, t2 replaced by the two ASTs given."""
    if isinstance(e, Var):
        return replacement[e.index]
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, replacement))
    if isinstance(e, Call):
        return Call(e.fn, substitute(e.arg, replacement))
    if isinstance(e, BinOp):
        return BinOp(e.op, substitute(e.left, replacement),
                     substitute(e.right, replacement))
    return e


def _is_constant(e):
    if isinstance(e, Var):
        return False
    if isinstance(e, (Num, Param)):
        return True
    if isinstance(e, Neg):
        return _is_constant(e.arg)
    if isinstance(e, Call):
        return _is_constant(e.arg)
    return _is_constant(e.left) and _is_constant(e.right)


def validate(e, params):
    """Return a list of problems (empty when the expression is usable)."""
    problems = []

    def walk(node):
        if isinstance(node, Param) and node.name not in params:
            problems.append(f"undeclared identifier {node.name!r}")
        elif isinstance(node, Neg):
            walk(node.arg)
        elif isinstance(node, Call):
            walk(node.arg)
        elif isinstance(node, BinOp):
            if node.op == "^" and not _is_constant(node.right):
                problems.append(
                    f"non-constant exponent in {to_string(node)!r}")
            walk(node.left)
            walk(node.right)

    walk(e)
    return problems


def eval_jet(e, params, point, order):
    """Jet of the expression at the point, exact to the given order."""
    try:
        return _eval(e, params, point, order)
    except SingularEvaluationError as err:
        if err.context is None:
            raise SingularEvaluationError(err.what, err.value,
                                          f"in {to_string(e)!r}") from None
        raise


def _eval(e, params, point, order):
    if isinstance(e, Num):
        return jets.constant(e.value, order)
    if isinstance(e, Var):
        return jets.seed(point[e.index], e.index, order)
    if isinstance(e, Param):
        try:
            return jets.constant(params[e.name], order)
        except KeyError:
            raise KeyError(f"parameter {e.name!r} has no value") from None
    if isinstance(e, Neg):
        return -_eval(e.arg, params, point, order)
    if isinstance(e, Call):
        return jets.elementary(e.fn, _eval(e.arg, params, point, order))
    if isinstance(e, BinOp):
        if e.op == "^":
            p = eval_scalar(e.right, params, point)
            return _eval(e.left, params, point, order) ** p
        a = _eval(e.left, params, point, order)
        b = _eval(e.right, params, point, order)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        return a / b
    raise TypeError(f"not an expression node: {e!r}")


def eval_scalar(e, params, point):
    """Plain float evaluation (used by the finite-difference oracle)."""
    return _eval(e, params, point, 0).value
