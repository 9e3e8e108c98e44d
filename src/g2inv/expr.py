"""Recursive-descent parser, jet evaluator and float evaluator for
component expressions.

Parsed expressions are hash-consed DAGs: every distinct subtree is one
node object, and evaluation at a point, or over a list of points,
computes each node once.

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

import functools
import re
from dataclasses import dataclass
from itertools import repeat
from operator import add, mul, neg, sub, truediv

from . import jets
from .errors import (ExprDepthError, ExprSyntaxError, G2InvError,
                     SingularEvaluationError)

FUNCTIONS = set(jets.ELEMENTARY_FUNCTIONS)


def _depth_checked(walk):
    """A walk that recurses once or twice per nesting level: an input nested
    past Python's recursion limit is an input error, not a RecursionError."""
    @functools.wraps(walk)
    def checked(*args, **kwargs):
        try:
            return walk(*args, **kwargs)
        except RecursionError:
            raise ExprDepthError("expression nested too deeply") from None
    return checked


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


_TOKEN = r"""\s*(?:
      (?P<op>[-+*/^()])
    | (?P<num>[\d.{digits}]+(?:[eE](?:[+-]|(?=[\d{digits}]))[\d.{digits}]*)?)
    | (?P<ident>{not_numerals}[^\W\d]\w*)
    | (?P<bad>\S))"""
_ASCII_TOKEN = re.compile(_TOKEN.format(digits="", not_numerals=""),
                          re.VERBOSE)


def _token_regex(text):
    """The token regex for the text.

    A number is a run of str.isdigit characters and a name starts with a
    str.isalpha one.  \\d and \\w differ from those only on numerals that
    are not decimal digits: a digit such as '²' continues a number, and
    a numeral such as '½' starts no token.  Those found in the text are
    added to the classes.
    """
    if text.isascii():
        return _ASCII_TOKEN
    odd = {c for c in set(text) if c.isnumeric() and not c.isdecimal()}
    digits = "".join(sorted(c for c in odd if c.isdigit()))
    numerals = "".join(sorted(c for c in odd
                              if not c.isdigit() and not c.isalpha()))
    return re.compile(_TOKEN.format(
        digits=re.escape(digits),
        not_numerals=f"(?![{re.escape(numerals)}])" if numerals else ""),
        re.VERBOSE)


_ATOMS = {str, int, float}


class _Parser:
    """Builds the hash-consed AST: ``table`` maps (type, fields) to the one
    node with that content, children keyed by identity since they are
    already interned."""

    def __init__(self, text, table):
        # tokenized in one pass; a bad character raises only once the
        # parser reaches it, so an earlier syntax error is reported first
        self.tokens = [(m.lastgroup, m.group(m.lastgroup),
                        m.start(m.lastgroup))
                       for m in _token_regex(text).finditer(text)]
        self.tokens.append(("eof", "", len(text)))
        self.i = 0
        self.table = table

    def peek(self):
        tok = self.tokens[self.i]
        if tok[0] == "bad":
            raise ExprSyntaxError(f"unexpected character {tok[1]!r}", tok[2])
        return tok

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def node(self, cls, *fields):
        key = (cls, *[f if f.__class__ in _ATOMS else id(f) for f in fields])
        found = self.table.get(key)
        if found is None:
            found = self.table[key] = cls(*fields)
        return found

    def parse(self):
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected trailing input {text!r}", pos)
        return e

    def expr(self):
        left = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.i += 1
                left = self.node(BinOp, text, left, self.term())
            else:
                return left

    def term(self):
        left = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.i += 1
                left = self.node(BinOp, text, left, self.factor())
            else:
                return left

    def factor(self):
        base = self.base()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.i += 1
            exponent = self.base()
            kind, text, pos = self.peek()
            if kind == "op" and text == "^":
                raise ExprSyntaxError(
                    "chained '^' is ambiguous, use parentheses", pos)
            return self.node(BinOp, "^", base, exponent)
        return base

    def base(self):
        kind, text, pos = self.take()
        if kind == "num":
            try:
                return self.node(Num, float(text))
            except ValueError:
                raise ExprSyntaxError(f"bad number {text!r}", pos) from None
        if kind == "op" and text == "-":
            return self.node(Neg, self.factor())
        if kind == "op" and text == "(":
            e = self.expr()
            kind, text, pos = self.take()
            if text != ")":
                raise ExprSyntaxError("expected ')'", pos)
            return e
        if kind == "ident":
            nxt_kind, nxt_text, _ = self.peek()
            if nxt_kind == "op" and nxt_text == "(":
                if text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {text!r}", pos)
                self.i += 1
                arg = self.expr()
                kind2, text2, pos2 = self.take()
                if text2 != ")":
                    raise ExprSyntaxError("expected ')'", pos2)
                return self.node(Call, text, arg)
            if text == "t1":
                return self.node(Var, 0)
            if text == "t2":
                return self.node(Var, 1)
            return self.node(Param, text)
        raise ExprSyntaxError(f"expected a value, got {text!r}", pos)


@_depth_checked
def parse(text, table=None):
    """Parse expression text into an AST in which every distinct subtree
    is one node object.

    ``table`` is the intern table; texts parsed with the same table share
    their common subtrees (one table per metric or transform load).
    """
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text, {} if table is None else table).parse()


@_depth_checked
def to_string(e):
    """Render an AST back to parseable text (parse(to_string(e)) == e).

    A subtree shared in the DAG is rendered once and its text reused.
    """
    memo = {}

    def prec(node):
        if isinstance(node, BinOp):
            return {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}[node.op]
        if isinstance(node, Neg):
            return 3
        return 9

    def wrap(node, minimum):
        s = render(node)
        return f"({s})" if prec(node) < minimum else s

    def render(node):
        text = memo.get(id(node))
        if text is None:
            text = memo[id(node)] = render_node(node)
        return text

    def render_node(node):
        if isinstance(node, Num):
            return repr(node.value)
        if isinstance(node, Var):
            return "t1" if node.index == 0 else "t2"
        if isinstance(node, Param):
            return node.name
        if isinstance(node, Neg):
            return "-" + wrap(node.arg, 3)
        if isinstance(node, Call):
            return f"{node.fn}({render(node.arg)})"
        if isinstance(node, BinOp):
            p = prec(node)
            if node.op == "^":
                # '^' is non-associative; parenthesize any compound child
                return f"{wrap(node.left, 9)}^{wrap(node.right, 9)}"
            # binary ops parse left-associative: right child binds tighter
            return f"{wrap(node.left, p)} {node.op} {wrap(node.right, p + 1)}"
        raise TypeError(f"not an expression node: {node!r}")

    return render(e)


@_depth_checked
def substitute(e, replacement, memo=None):
    """The expression with t1, t2 replaced by the two ASTs given.

    Each distinct node is rewritten once, so a subtree shared in ``e``
    stays one shared node in the result.  ``memo`` (node id -> result)
    carries that sharing across calls with the same replacement.
    """
    memo = {} if memo is None else memo

    def sub(node):
        done = memo.get(id(node))
        if done is not None:
            return done
        if isinstance(node, Var):
            done = replacement[node.index]
        elif isinstance(node, Neg):
            done = Neg(sub(node.arg))
        elif isinstance(node, Call):
            done = Call(node.fn, sub(node.arg))
        elif isinstance(node, BinOp):
            done = BinOp(node.op, sub(node.left), sub(node.right))
        else:
            done = node
        memo[id(node)] = done
        return done

    return sub(e)


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


@_depth_checked
def validate(e, params):
    """Return a list of problems (empty when the expression is usable)."""
    problems = []
    seen = set()

    def walk(node):
        if id(node) in seen:
            return
        seen.add(id(node))
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


@_depth_checked
def eval_jet(e, params, point, order, memo=None):
    """Jet of the expression at the point, exact to the given order.

    Each distinct node is evaluated once.  ``memo`` maps node ids to their
    jets at this point and order; expressions evaluated at the same point
    and order share one to reuse their common subexpressions.
    """
    try:
        return _eval(e, params, point, order, {} if memo is None else memo)
    except SingularEvaluationError as err:
        if err.context is None:
            raise SingularEvaluationError(err.what, err.value,
                                          f"in {to_string(e)!r}") from None
        raise


def _eval(e, params, point, order, memo):
    done = memo.get(id(e))
    if done is not None:
        return done
    if isinstance(e, Num):
        done = jets.constant(e.value, order)
    elif isinstance(e, Var):
        done = jets.seed(point[e.index], e.index, order)
    elif isinstance(e, Param):
        try:
            done = jets.constant(params[e.name], order)
        except KeyError:
            raise KeyError(f"parameter {e.name!r} has no value") from None
    elif isinstance(e, Neg):
        done = -_eval(e.arg, params, point, order, memo)
    elif isinstance(e, Call):
        done = jets.elementary(e.fn, _eval(e.arg, params, point, order, memo))
    elif isinstance(e, BinOp):
        if e.op == "^":
            p = eval_scalar(e.right, params, point)
            done = _eval(e.left, params, point, order, memo) ** p
        else:
            a = _eval(e.left, params, point, order, memo)
            b = _eval(e.right, params, point, order, memo)
            if e.op == "+":
                done = a + b
            elif e.op == "-":
                done = a - b
            elif e.op == "*":
                done = a * b
            else:
                done = a / b
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[id(e)] = done
    return done


@_depth_checked
def eval_floats(asts, params, points):
    """Float values of the expressions at the points: one list over the
    points per expression, each value bit for bit eval_jet(e, params, p,
    0).value.

    Each distinct node is computed once, as a list over the points.  The
    error raised is the one met first evaluating each expression in turn
    at each point in turn.
    """
    memo = {}
    try:
        return [_floats(e, params, points, memo) for e in asts]
    except (G2InvError, ArithmeticError, ValueError) as err:
        failure = err
    for e in asts:
        for p in points:
            _floats(e, params, (p,), {})
    raise failure


def eval_scalar(e, params, point):
    """Float value of the expression at a point (eval_floats of one)."""
    return eval_floats((e,), params, (point,))[0][0]


def _floats(e, params, points, memo):
    done = memo.get(id(e))
    if done is not None:
        return done
    if isinstance(e, Num):
        done = [float(e.value)] * len(points)
    elif isinstance(e, Var):
        done = [float(p[e.index]) for p in points]
    elif isinstance(e, Param):
        try:
            done = [float(params[e.name])] * len(points)
        except KeyError:
            raise KeyError(f"parameter {e.name!r} has no value") from None
    elif isinstance(e, Neg):
        done = list(map(neg, _floats(e.arg, params, points, memo)))
    elif isinstance(e, Call):
        done = jets._values(e.fn, _floats(e.arg, params, points, memo))
    elif isinstance(e, BinOp):
        if e.op == "^":
            ps = _floats(e.right, params, points, memo)
            done = _power(_floats(e.left, params, points, memo), ps)
        else:
            a = _floats(e.left, params, points, memo)
            b = _floats(e.right, params, points, memo)
            if e.op == "+":
                done = list(map(add, a, b))
            elif e.op == "-":
                done = list(map(sub, a, b))
            elif e.op == "*":
                done = _product(a, b)
            else:
                done = _quotient(a, b)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[id(e)] = done
    return done


# the order-0 semantics of Jet2 arithmetic on lists of floats


def _product(a, b):
    # Jet2.__mul__ accumulates 0.0 + a*b: a zero product is +0.0
    return list(map(add, map(mul, a, b), repeat(0.0)))


def _quotient(a, b):
    if 0.0 in b:
        raise SingularEvaluationError("div", b[b.index(0.0)])
    return list(map(truediv, a, b))


def _power(xs, ps):
    """Jet2.__pow__ of each x by its exponent."""
    p = ps[0]
    if ps.count(p) != len(ps):
        return [_power([x], [q])[0] for x, q in zip(xs, ps)]
    if p == int(p):
        return _int_power(xs, int(p))
    out = []
    try:
        for v in xs:
            if v <= 0.0:
                raise SingularEvaluationError("pow", v,
                                              f"non-integer exponent {p}")
            out.append(v ** p)
    except OverflowError:
        raise SingularEvaluationError("pow", v, "overflow") from None
    return out


def _int_power(xs, n):
    # square-and-multiply with the products of jets._int_power
    if n == 0:
        return [1.0] * len(xs)
    if n < 0:
        return _quotient([1.0] * len(xs), _int_power(xs, -n))
    result, base = None, xs
    while True:
        if n & 1:
            result = base if result is None else _product(result, base)
        n >>= 1
        if not n:
            return result
        base = _product(base, base)
