"""A 40-digit reference for the float pipeline, in mpmath.

A metric's expression ASTs are evaluated in mpmath at ``DPS`` digits,
their partial derivatives taken by ``mp.diff``, and the 4-metric and its
Riemann tensor built from those jets; a bfh metric is converted to the
submersion form in mpmath too.  Nothing here computes a value with
jets.py or einstein.py, so the float results can be measured against
it: a high-precision reference for float results (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., SIAM 2002, §27).
oracle_point_jets rounds the 40-digit submersion jets to floats and
builds a PointJets of them with metrics.assemble, so every layer the
float pipeline derives from component jets can be checked from there.

A jet here is a dict {(i, j): d^(i+j) f / dt1^i dt2^j} of mpf values,
over i + j <= its order.
"""

import functools
import operator
from math import comb

from mpmath import mp

from g2inv import expr, jets, metrics
from g2inv.metrics import SUBMERSION_KEYS

DPS = 40

_FUNCTIONS = {"exp": mp.exp, "ln": mp.log, "sqrt": mp.sqrt, "sin": mp.sin,
              "cos": mp.cos, "tan": mp.tan, "sinh": mp.sinh,
              "cosh": mp.cosh, "tanh": mp.tanh}
_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": operator.pow}


def evaluate(e, params, t, memo=None):
    """mpf value of an expression AST at t = (t1, t2), at mpmath's working
    precision; each distinct node is evaluated once per memo."""
    memo = {} if memo is None else memo
    done = memo.get(id(e))
    if done is not None:
        return done
    if isinstance(e, expr.Num):
        done = mp.mpf(e.value)
    elif isinstance(e, expr.Var):
        done = t[e.index]
    elif isinstance(e, expr.Param):
        done = mp.mpf(params[e.name])
    elif isinstance(e, expr.Neg):
        done = -evaluate(e.arg, params, t, memo)
    elif isinstance(e, expr.Call):
        done = _FUNCTIONS[e.fn](evaluate(e.arg, params, t, memo))
    elif isinstance(e, expr.BinOp):
        done = _BINOPS[e.op](evaluate(e.left, params, t, memo),
                             evaluate(e.right, params, t, memo))
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[id(e)] = done
    return done


def component_jets(m, t, order=2):
    """{component key: jet of that order} of the metric's ten components at
    t, by mp.diff at DPS digits.  The components are evaluated together
    at each stencil point mp.diff visits."""
    with mp.workdps(DPS):
        t = tuple(map(mp.mpf, t))

        # keyed by the precision too: mp.diff may visit one point at two
        @functools.lru_cache(maxsize=None)
        def values(a, b, prec):
            memo = {}
            return {key: evaluate(ast, m.params, (a, b), memo)
                    for key, ast in m.asts.items()}

        def component(key):
            return lambda a, b: values(a, b, mp.prec)[key]

        return {key: {(i, j): mp.diff(component(key), t, (i, j))
                      for i in range(order + 1)
                      for j in range(order + 1 - i)}
                for key in m.asts}


def _mul(f, g):
    """The jet of a product, by Leibniz's rule."""
    return {(i, j): mp.fsum(comb(i, a) * comb(j, b) * f[a, b]
                            * g[i - a, j - b]
                            for a in range(i + 1) for b in range(j + 1))
            for i, j in f}


def _add(*fs):
    return {k: mp.fsum(f[k] for f in fs) for k in fs[0]}


def _div(f, g):
    """The jet of a quotient q = f / g: Leibniz's rule for f = q g solved
    for each coefficient of q, lower orders first."""
    q = {}
    for i, j in sorted(f, key=sum):
        q[i, j] = (f[i, j] - mp.fsum(
            comb(i, a) * comb(j, b) * q[a, b] * g[i - a, j - b]
            for a in range(i + 1) for b in range(j + 1)
            if (a, b) != (i, j))) / g[0, 0]
    return q


def submersion_jets(m, t):
    """The ten order-2 submersion component jets at t, in SUBMERSION_KEYS
    order; a bfh metric's by h^-1 = adj h / det h, F_j^k = f_js h^sk and
    gt_ij = b_ij - f_ik F_j^k in jet arithmetic at DPS digits."""
    c = component_jets(m, t)
    if m.form == "submersion":
        return [c[key] for key in SUBMERSION_KEYS]
    with mp.workdps(DPS):
        def neg(f):
            return {k: -v for k, v in f.items()}

        det = _add(_mul(c["h11"], c["h22"]), neg(_mul(c["h12"], c["h12"])))
        hi = [[_div(c["h22"], det), _div(neg(c["h12"]), det)],
              [_div(neg(c["h12"]), det), _div(c["h11"], det)]]
        f = [[c["f11"], c["f12"]], [c["f21"], c["f22"]]]
        F = [[_add(*(_mul(f[j][s], hi[s][k]) for s in range(2)))
              for k in range(2)] for j in range(2)]
        gt = [_add(c[f"b{i + 1}{j + 1}"],
                   *(neg(_mul(f[i][k], F[j][k])) for k in range(2)))
              for i, j in ((0, 0), (0, 1), (1, 1))]
        return [*gt, *F[0], *F[1], c["h11"], c["h12"], c["h22"]]


def oracle_point_jets(m, t):
    """The PointJets at t of the 40-digit submersion component jets,
    rounded to floats."""
    return metrics.assemble(t, 2, [
        jets.Jet2(2, [float(jet[ij]) for ij in jets._IDX[2]])
        for jet in submersion_jets(m, t)])


def four_metric_jets(m, t):
    """4 x 4 nested list of the order-2 jets of the 4-metric in
    (t1, t2, z1, z2) order.  bfh components are its blocks as they stand;
    submersion ones give gt + F^T h F, F^T h and h by jet products."""
    c = component_jets(m, t)
    with mp.workdps(DPS):
        g = [[None] * 4 for _ in range(4)]
        if m.form == "bfh":
            for a, b, key in ((0, 0, "b11"), (0, 1, "b12"), (1, 1, "b22"),
                              (0, 2, "f11"), (0, 3, "f12"), (1, 2, "f21"),
                              (1, 3, "f22"), (2, 2, "h11"), (2, 3, "h12"),
                              (3, 3, "h22")):
                g[a][b] = g[b][a] = c[key]
            return g
        h = [[c["h11"], c["h12"]], [c["h12"], c["h22"]]]
        F = [[c["F11"], c["F12"]], [c["F21"], c["F22"]]]  # F[i][k] = F_i^k
        gt = [[c["gt11"], c["gt12"]], [c["gt12"], c["gt22"]]]
        for i in range(2):
            for j in range(2):
                g[i][j] = _add(gt[i][j], *(
                    _mul(_mul(F[i][k], F[j][l]), h[k][l])
                    for k in range(2) for l in range(2)))
            for k in range(2):
                g[i][2 + k] = g[2 + k][i] = _add(
                    *(_mul(F[i][l], h[l][k]) for l in range(2)))
        for k in range(2):
            for l in range(2):
                g[2 + k][2 + l] = h[k][l]
        return g


_D = ((1, 0), (0, 1))  # the jet index of d/dt1 and of d/dt2


def riemann(g):
    """(g at the point as an mp.matrix, R^a_bcd as a nested list) from the
    4-metric jets, with R^a_bcd = d_c G^a_db - d_d G^a_cb + G^a_ce G^e_db
    - G^a_de G^e_cb; only t1 and t2 carry derivatives."""
    with mp.workdps(DPS):
        r = range(4)
        g0 = mp.matrix([[g[a][b][0, 0] for b in r] for a in r])
        gi = g0 ** -1
        zero = mp.matrix(4, 4)
        dg = [mp.matrix([[g[a][b][_D[e]] for b in r] for a in r])
              for e in range(2)] + [zero, zero]

        def ddg(e, f):
            if e > 1 or f > 1:
                return zero
            i, j = (x + y for x, y in zip(_D[e], _D[f]))
            return mp.matrix([[g[a][b][i, j] for b in r] for a in r])

        # first-kind symbols L_dbc and their t-derivatives
        L = [[[(dg[b][d, c] + dg[c][d, b] - dg[d][b, c]) / 2 for c in r]
              for b in r] for d in r]
        dL = [[[[(ddg(e, b)[d, c] + ddg(e, c)[d, b] - ddg(e, d)[b, c]) / 2
                 for c in r] for b in r] for d in r] for e in range(2)]
        dgi = [-gi * dg[e] * gi for e in range(2)]
        G = [[[mp.fsum(gi[a, d] * L[d][b][c] for d in r) for c in r]
              for b in r] for a in r]
        dG = [[[[mp.fsum(dgi[e][a, d] * L[d][b][c]
                         + gi[a, d] * dL[e][d][b][c] for d in r)
                 for c in r] for b in r] for a in r] for e in range(2)]

        def d(e, a, b, c):  # d_e G^a_bc; z1, z2 carry no derivative
            return dG[e][a][b][c] if e < 2 else 0

        R = [[[[d(c, a, dd, b) - d(dd, a, c, b)
                + mp.fsum(G[a][c][e] * G[e][dd][b] - G[a][dd][e] * G[e][c][b]
                          for e in r)
                for dd in r] for c in r] for b in r] for a in r]
        return g0, R


def sectional_curvature(g0, R, u, v):
    """K of the plane of 4-vectors u, v: g(R(u, v) v, u) / (|u|^2 |v|^2 -
    g(u, v)^2), with R(u, v) v = R^a_bcd v^b u^c v^d."""
    with mp.workdps(DPS):
        r = range(4)
        w = [mp.fsum(R[a][b][c][d] * v[b] * u[c] * v[d]
                     for b in r for c in r for d in r) for a in r]

        def form(x, y):
            return mp.fsum(x[a] * g0[a, b] * y[b] for a in r for b in r)

        return form(w, u) / (form(u, u) * form(v, v) - form(u, v) ** 2)


def gauss_curvatures(m, t):
    """{"K_Xi", "K_Xiperp"}: the sectional curvatures of the Killing plane
    (d_z1, d_z2) and of the horizontal one (d_t1 - F_1^k d_zk, d_t2 -
    F_2^k d_zk) at t, from the 4D Riemann tensor at DPS digits."""
    g = four_metric_jets(m, t)
    g0, R = riemann(g)
    with mp.workdps(DPS):
        # F_i^k = g_i,2+l (h^-1)^lk: the submersion form's F, from either
        F = (mp.matrix([[g0[i, 2 + k] for k in range(2)] for i in range(2)])
             * mp.matrix([[g0[2 + k, 2 + l] for l in range(2)]
                          for k in range(2)]) ** -1)
        return {"K_Xi": sectional_curvature(g0, R, (0, 0, 1, 0),
                                            (0, 0, 0, 1)),
                "K_Xiperp": sectional_curvature(
                    g0, R, (1, 0, -F[0, 0], -F[0, 1]),
                    (0, 1, -F[1, 0], -F[1, 1]))}


def rel_err(x, exact):
    """|x - exact| relative to the larger magnitude, with floor 1 (as
    perfbench's rel_err), computed at DPS digits."""
    with mp.workdps(DPS):
        x = mp.mpf(x)
        return float(abs(x - exact) / max(1, abs(x), abs(exact)))
