"""The one-pass front end against the recursive-descent parser and the
walks it replaced (reference_parser.py): for every text, the same node
structure or the same syntax error at the same offset, and for every
document, the same problems in the same order."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_parser as reference
from g2inv import expr, metrics
from g2inv.errors import ExprSyntaxError, MetricDefinitionError

SETTINGS = settings(derandomize=True, max_examples=400, deadline=None)
PARAMS = {"c": 2.0}
# glued together as drawn, so neighbours also make longer tokens (t12,
# 1e3, sin2); stray characters, malformed numbers and numerals that are
# no decimal digits among them
PIECES = ["t1", "t2", "c", "d1", "d2", "x", "sin", "sqrt", "foo", "(", ")",
          "+", "-", "*", "/", "^", "2", "0.5", "1e", "e3", "1.2.3", ".",
          "²", "½", "٣", "$", ",", " ", " ", "\t"]
soups = st.lists(st.sampled_from(PIECES), max_size=14).map("".join)
# each fails: '2^-3^2' reads as 2^(-(3^2)), so the chain is '2^-3^2^2',
# and '٣' is a decimal digit, so it fails only after a value
MALFORMED = ["", "   ", "(t1", "t1)", "((t1)", "sin(t1", "2^t1^2", "-t1^2^3",
             "2^-3^2^2", "t1 $ 2", "1.2.3", "t1 + * t2", "sin t1", "foo(t1)",
             "t1(2)", "²", "½*t1", "3²", "1e+", "2^(t1", "t1 ٣"]


def _read(parse, text, table, defs):
    try:
        node = parse(text, table, defs)
    except ExprSyntaxError as err:
        return ("error", str(err), err.pos)
    return ("node", node, expr.to_string(node))


def _both(text, defs):
    """What the reference and the one-pass parser make of each def and
    then of text, each in its own table, with the problems of each."""
    out = []
    for parse, table, problems in (
            (reference.parse, {},
             lambda e, table: reference.validate(e, PARAMS)),
            (expr.parse, expr.Table(), lambda e, table: expr.validate(
                e, PARAMS, table))):
        named, reads = {}, []
        for key, body in [*defs.items(), ("", text)]:
            reads.append(_read(parse, body, table, named))
            if reads[-1][0] == "error":
                break
            named[key] = reads[-1][1]
            reads.append(problems(named[key], table))
        out.append(reads)
    return out


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_texts_fail_as_in_the_reference(text):
    want, got = _both(text, {})
    assert got == want and want[0][0] == "error"


@SETTINGS
@given(soups)
@example("t1 + t2*c - sin(t1)^2/-t2")
@example("--t1^-c*t2/-3")
@example("2^-3^2")
@example("٣*t1")
def test_texts_read_as_the_reference_reads_them(text):
    want, got = _both(text, {})
    assert got == want


@SETTINGS
@given(soups, soups)
@example("c*t1 - 1", "d1^2 + x*t2^t1 + d1")
@example("t2 + 1", "sin(t1)^d1 + y")
def test_texts_with_defs_read_as_the_reference_reads_them(body, text):
    want, got = _both(text, {"d1": "t1*t2 + c", "d2": body})
    assert got == want


def _load(load, defs, components):
    try:
        return ("asts", {k: (e, expr.to_string(e))
                         for k, e in load(defs, components).items()})
    except (ExprSyntaxError, MetricDefinitionError) as err:
        return (type(err).__name__, str(err), getattr(err, "pos", None))


def _load_metric(defs, components):
    return metrics.load_metric({
        "name": "m", "form": "submersion", "params": PARAMS, "defs": defs,
        "components": components}).asts


texts = st.one_of(soups, st.sampled_from([
    "c*t1", "t1^t2", "x + t1^t2 + y", "d1 + d2", "2^(c*t1) - z", "sin(d1)"]))


@SETTINGS
@given(st.lists(texts, max_size=3), st.lists(texts, max_size=3))
@example(["d2 * t1", "d1 + 1"], [])
@example(["c*t1", "d1^t2"], ["x"])
@example([], ["x + t1^t2 + y", "y^t1"])
@example(["t1 + w"], ["d1 + w^t2"])
@example(["t1", *(f"sin(d{k})" for k in range(1, 502))], ["d500"])
def test_documents_load_as_the_reference_loads_them(defs, components):
    # the problems of the first text that has any, in the reference
    # walk's pre-order, with the text named as load_metric names it
    defs = {f"d{k + 1}": text for k, text in enumerate(defs)}
    components = dict(zip(metrics.SUBMERSION_KEYS, [*components, *["1"] * 10]))
    want = _load(lambda d, c: reference.load_texts(PARAMS, d, c),
                 defs, components)
    assert _load(_load_metric, defs, components) == want
