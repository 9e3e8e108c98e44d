"""Parser and jet evaluator for component expressions.

Parsed expressions are hash-consed DAGs: every distinct subtree is one
node object, and evaluation at a point, or at a batch point of two
float64 arrays, computes each node once.

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
import itertools
import math
import re
from dataclasses import dataclass

from . import jets
from .errors import ExprDepthError, ExprSyntaxError, SingularEvaluationError

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


_END = ("", "", "", "")  # findall's (op, num, ident, bad) past the end
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG = (3, "-", None, 0)  # unary minus: tighter than '*', looser than '^'
_COORDS = {"t1": (Var, 0), "t2": (Var, 1)}


class Table:
    """An intern table, one per metric or transform load: nodes maps
    (type or operator, fields) to the one node with that content and its
    facts, found from its children's as it is interned (children keyed by
    identity): 2 * its depth (1 for a leaf), + 1 if it holds t1 or t2.
    facts holds them by the id of each node parse returned, and suspects
    each Param and each '^' whose exponent holds t1 or t2."""

    def __init__(self):
        self.nodes, self.facts, self.suspects = {}, {}, []

    def depth(self, node):  # of a node parse returned
        return self.facts[id(node)] >> 1


class _Parser:
    """Reads one text into the table: a call per parenthesized group, in
    which one loop stacks each operator with its left operand."""

    def __init__(self, text, table, defs):
        # tokenized in one pass; a bad character raises only once the
        # parser reaches it, so an earlier syntax error is reported first
        self.text, self.table, self.nodes, self.defs = (text, table,
                                                        table.nodes, defs)
        self.tokens = _token_regex(text).findall(text) + [_END]

    def fail(self, message, k):
        """Raise the error at token k, its offset found by the same regex."""
        starts = [m.start(m.lastindex)
                  for m in _token_regex(self.text).finditer(self.text)]
        raise ExprSyntaxError(message, (starts + [len(self.text)])[k])

    def leaf(self, cls, field):
        """(node, facts) of a number, t1, t2 or a Param."""
        entry = self.nodes.get((cls, field))
        if entry is None:
            entry = self.nodes[cls, field] = (cls(field), 2 + (cls is Var))
            if cls is Param:
                self.table.suspects.append(entry[0])
        return entry

    def unary(self, fn, arg, facts):
        """(node, facts) of the Neg (fn '-') or the Call of fn on arg."""
        entry = self.nodes.get((fn, id(arg)))
        if entry is None:
            entry = self.nodes[fn, id(arg)] = (
                Neg(arg) if fn == "-" else Call(fn, arg), facts + 2)
        return entry

    def group(self, i):
        """(node, facts, index of the next token) of the operands and
        operators from token i to one that continues none (a ')' or the
        end, in a well-formed text)."""
        tokens, nodes, stack = self.tokens, self.nodes, []
        while True:
            op, num, name, bad = tokens[i]
            i += 1
            if op == "-":
                stack.append(_NEG)
                continue
            if num:
                try:
                    node, facts = self.leaf(Num, float(num))
                except ValueError:
                    self.fail(f"bad number {num!r}", i - 1)
            elif name and tokens[i][0] != "(":
                node = self.defs.get(name)
                node, facts = (self.leaf(*_COORDS.get(name, (Param, name)))
                               if node is None
                               else (node, self.table.facts[id(node)]))
            else:
                if name:
                    if name not in FUNCTIONS:
                        self.fail(f"unknown function {name!r}", i - 1)
                    i += 1
                elif op != "(":
                    self.fail(f"unexpected character {bad!r}" if bad
                              else f"expected a value, got {op!r}", i - 1)
                node, facts, i = self.group(i)
                if tokens[i][0] != ")":
                    self.fail("expected ')'", i)
                i += 1
                if name:
                    node, facts = self.unary(name, node, facts)
            # the operator after it; past the last one, prec 0 applies all
            op = tokens[i][0]
            prec = _PREC.get(op, 0)
            if op == "^" and stack and stack[-1][1] == "^":
                self.fail("chained '^' is ambiguous, use parentheses", i)
            while stack and stack[-1][0] >= prec:
                _, top, left, lf = stack.pop()
                if left is None:
                    node, facts = self.unary("-", node, facts)
                    continue
                key = (top, id(left), id(node))
                entry = nodes.get(key)
                if entry is None:
                    entry = nodes[key] = (BinOp(top, left, node),
                                          (lf if lf > facts else facts) + 2
                                          | (lf | facts) & 1)
                    if top == "^" and facts & 1:
                        self.table.suspects.append(entry[0])
                node, facts = entry
            if not prec:
                break
            stack.append((prec, op, node, facts))
            i += 1
        if tokens[i][3]:
            self.fail(f"unexpected character {tokens[i][3]!r}", i)
        return node, facts, i


@_depth_checked
def parse(text, table=None, defs=None):
    """Parse expression text into an AST in which every distinct subtree
    is one node object.

    ``table`` is the intern Table; texts parsed with the same table share
    their common subtrees (one table per metric or transform load).
    This is the one place expression nodes are built.  ``defs`` maps a
    name to a node parsed with the same table: the name stands for that
    node, as a parenthesized copy of its text would.  A def may bind t1
    or t2, which substitutes a map into the text (metric documents may
    not name a def so; transform binds its maps this way).
    """
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(text, Table() if table is None else table,
                     {} if defs is None else defs)
    node, parser.table.facts[id(node)], i = parser.group(0)
    if i < len(parser.tokens) - 1:
        parser.fail("unexpected trailing input "
                    f"{''.join(parser.tokens[i])!r}", i)
    return node


# the deepest a def may nest, so that a chain of short defs leaves the
# evaluator (a frame a level, under the recursion limit of 1000) room
# for a component's nesting; and the deepest text validate need not walk
MAX_DEPTH = 500


def _children(node):
    return ((node.arg,) if isinstance(node, (Neg, Call))
            else (node.left, node.right) if isinstance(node, BinOp) else ())


def _fold(e, combine, memo):
    """combine(node, [result of each child]) at each distinct node of e,
    children first.  ``memo`` (node id -> result) may be shared across
    calls: a node done before is not walked again."""
    def walk(node):
        done = memo.get(id(node))
        if done is None:
            done = memo[id(node)] = combine(node, list(map(walk,
                                                           _children(node))))
        return done

    return walk(e)


def _renderer(names, memo):
    """render(node, minimum) gives the node's text, parenthesized when its
    operator binds looser than minimum, and spell(node) its text as the
    top of a text.  A node in names (id -> text) is written as that name;
    the text of any other node is kept in memo (id -> text), so a subtree
    shared in the DAG is rendered once."""
    def render(node, minimum=0):
        text = names.get(id(node))
        if text is not None:
            return text
        text = memo.get(id(node))
        if text is None:
            text = memo[id(node)] = spell(node)
        # a negative number reads back as a Neg, so it binds as one
        negative = isinstance(node, Num) \
            and math.copysign(1.0, node.value) < 0.0
        prec = (_PREC[node.op] if isinstance(node, BinOp)
                else 3 if isinstance(node, Neg) or negative else 9)
        return f"({text})" if prec < minimum else text

    def spell(node):
        if isinstance(node, Num):
            return repr(node.value)
        if isinstance(node, Var):
            return "t1" if node.index == 0 else "t2"
        if isinstance(node, Param):
            return node.name
        if isinstance(node, Neg):
            return "-" + render(node.arg, 3)
        if isinstance(node, Call):
            return f"{node.fn}({render(node.arg)})"
        if node.op == "^":
            # '^' is non-associative; parenthesize any compound child
            return f"{render(node.left, 9)}^{render(node.right, 9)}"
        # binary ops parse left-associative: right child binds tighter
        p = _PREC[node.op]
        return (f"{render(node.left, p)} {node.op} "
                f"{render(node.right, p + 1)}")

    return render, spell


@_depth_checked
def to_string(e):
    """Render an AST back to parseable text, written out as a tree:
    parse(to_string(e)) == e for a parsed e (a negative number reads
    back as the Neg of its magnitude)."""
    return _renderer({}, {})[0](e)


@_depth_checked
def to_strings(asts, reserved=()):
    """(defs, texts): the ASTs rendered as texts that name their shared
    subtrees, with parse(texts[k], table, parsed defs) the node structure
    of parse(to_string(asts[k]), table).

    Each compound node that occurs twice or more across the ASTs is one
    def, name -> text, in post-order, so a def uses only earlier ones.
    Parsed ASTs have each distinct subtree as one node, so equal
    subtrees are one def.  A negative literal, -x, is never named.  The
    names d1, d2, ... skip any parameter of the ASTs and any name in
    reserved.
    """
    refs, order = {}, []

    def visit(node):
        refs[id(node)] = refs.get(id(node), 0) + 1
        if refs[id(node)] == 1:
            for child in _children(node):
                visit(child)
            order.append(node)

    for e in asts:
        visit(e)
    taken = {*reserved, *(n.name for n in order if isinstance(n, Param))}
    fresh = (name for name in map("d{}".format, itertools.count(1))
             if name not in taken)
    shared = [n for n in order if refs[id(n)] > 1 and _children(n)
              and not (isinstance(n, Neg) and isinstance(n.arg, Num))]
    names = {id(n): next(fresh) for n in shared}
    render, spell = _renderer(names, {})
    return ({names[id(n)]: spell(n) for n in shared},
            [render(e) for e in asts])


# the longest expression an error message writes out as a tree; defs let
# a short document denote an exponentially long one, which is written
# with its shared subtrees named instead
QUOTE_CAP = 100_000


@_depth_checked
def _quote(e):
    def length(node, kids):  # its text with its children written as ""
        blank = dict.fromkeys(map(id, _children(node)), "")
        return len(_renderer({}, blank)[1](node)) + sum(kids)

    if _fold(e, length, {}) <= QUOTE_CAP:
        return to_string(e)
    defs, (text,) = to_strings([e])
    return "; ".join([*(f"{k} = {v}" for k, v in defs.items()), text])


def _is_constant(e, memo=None):
    """Whether the expression holds no t1, t2."""
    return _fold(e, lambda node, kids: not isinstance(node, Var) and all(kids),
                 {} if memo is None else memo)


@_depth_checked
def validate(e, params, table=None):
    """Return a list of problems (empty when the expression is usable).
    Given the Table e was parsed with, they are looked for only if e nests
    deeper than MAX_DEPTH (a text too deep to walk is an error) or a Param
    not in params or a '^' with a non-constant exponent was interned."""
    if table is not None and table.depth(e) <= MAX_DEPTH and all(
            isinstance(n, Param) and n.name in params for n in table.suspects):
        return []
    problems, constant, seen = [], {}, set()

    def walk(node):
        if id(node) in seen:
            return
        seen.add(id(node))
        if isinstance(node, Param) and node.name not in params:
            problems.append(f"undeclared identifier {node.name!r}")
        elif isinstance(node, BinOp) and node.op == "^" \
                and not _is_constant(node.right, constant):
            problems.append(f"non-constant exponent in {_quote(node)!r}")
        for child in _children(node):
            walk(child)

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
                                          f"in {_quote(e)!r}") from None
        raise


def _eval(e, params, point, order, memo):
    done = memo.get(id(e))
    if done is not None:
        return done
    if isinstance(e, BinOp):
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
    elif isinstance(e, Num):
        done = jets.constant(e.value, order)
    elif isinstance(e, Var):
        done = jets.seed(point[e.index], e.index, order)
    elif isinstance(e, Param):
        done = jets.constant(params[e.name], order)
    elif isinstance(e, Neg):
        done = -_eval(e.arg, params, point, order, memo)
    else:
        done = jets.elementary(e.fn, _eval(e.arg, params, point, order, memo))
    memo[id(e)] = done
    return done


@_depth_checked
def eval_scalar(e, params, point):
    """Float value of the expression at a point: eval_jet(e, params,
    point, 0).value, with no expression text added to an error."""
    return _eval(e, params, point, 0, {}).value
