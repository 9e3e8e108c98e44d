"""A test-only oracle for the expression front end: a recursive-descent
parser with one method per precedence level, whose nodes' depths and
problems are found by walks after parsing.

tests/test_expr_reference.py holds expr.parse and metrics.load_metric
to it.  _Parser, parse, depth and validate are the package's earlier
code, kept verbatim; load_texts is the loop in which load_metric read a
document's defs and components with them.
"""

from g2inv.errors import ExprSyntaxError, MetricDefinitionError
from g2inv.expr import (FUNCTIONS, MAX_DEPTH, BinOp, Call, Neg, Num, Param,
                        Var, _children, _depth_checked, _fold, _is_constant,
                        _quote, _token_regex)

_ATOMS = {str, int, float}


class _Parser:
    """Builds the hash-consed AST: ``table`` maps (type, fields) to the one
    node with that content, children keyed by identity since they are
    already interned."""

    def __init__(self, text, table, defs):
        # tokenized in one pass; a bad character raises only once the
        # parser reaches it, so an earlier syntax error is reported first
        self.tokens = [(m.lastgroup, m.group(m.lastgroup),
                        m.start(m.lastgroup))
                       for m in _token_regex(text).finditer(text)]
        self.tokens.append(("eof", "", len(text)))
        self.i = 0
        self.table = table
        self.defs = defs

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
            if text in self.defs:
                return self.defs[text]
            if text == "t1":
                return self.node(Var, 0)
            if text == "t2":
                return self.node(Var, 1)
            return self.node(Param, text)
        raise ExprSyntaxError(f"expected a value, got {text!r}", pos)


@_depth_checked
def parse(text, table=None, defs=None):
    """Parse expression text into an AST in which every distinct subtree
    is one node object.

    ``table`` is the intern table; texts parsed with the same table share
    their common subtrees (one table per metric or transform load).
    This is the one place expression nodes are built.  ``defs`` maps a
    name to a node parsed with the same table: the name stands for that
    node, as a parenthesized copy of its text would.  A def may bind t1
    or t2, which substitutes a map into the text (metric documents may
    not name a def so; transform binds its maps this way).
    """
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text, {} if table is None else table,
                   {} if defs is None else defs).parse()


@_depth_checked
def depth(e, memo):
    """Nesting depth of the expression, 1 for a leaf."""
    return _fold(e, lambda node, kids: 1 + max(kids, default=0), memo)

@_depth_checked
def validate(e, params, seen=None):
    """Return a list of problems (empty when the expression is usable).

    ``seen`` holds the ids of nodes checked before against the same
    params, which are skipped: the texts of one document share one.
    """
    problems, constant = [], {}
    seen = set() if seen is None else seen

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


def load_texts(params, defs, components):
    """The component ASTs of a document's texts, read as load_metric read
    them: each def in turn, checked for depth and validated, then each
    component."""
    table, depths, named, seen = {}, {}, {}, set()

    def validated(where, ast):
        problems = validate(ast, set(params), seen)
        if problems:
            raise MetricDefinitionError(f"{where}: " + "; ".join(problems))
        return ast

    for key, text in defs.items():
        ast = parse(text, table, named)
        if depth(ast, depths) > MAX_DEPTH:
            raise MetricDefinitionError(
                f"def {key}: nested deeper than {MAX_DEPTH} levels")
        named[key] = validated(f"def {key}", ast)
    return {key: validated(f"component {key}", parse(text, table, named))
            for key, text in components.items()}
