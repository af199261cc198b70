"""Test-only exact multilinear forms of model vector fields, via sympy.

The production oracle propagates Taylor jets; these symbolic derivatives,
evaluated with 30 significant digits, are the independent reference it is
checked against.
"""

import itertools

import numpy as np
import sympy as sp


class SymbolicForms:
    """Exact multilinear forms of a sympy vector field at a base point."""

    def __init__(self, exprs, xvars, pvars, x0, alpha0):
        self.exprs = list(exprs)
        self.xvars = list(xvars)
        self.pvars = list(pvars)
        # the binary base point, exactly
        self.subs = {**{v: sp.Rational(float(c)) for v, c in zip(xvars, x0)},
                     **{v: sp.Rational(float(c)) for v, c in zip(pvars, alpha0)}}
        self.n = len(exprs)
        self._derivatives = {}

    def _derivative(self, i, variables):
        """d^k f_i / d(variables), evaluated to 30 digits; mixed partials commute."""
        key = (i, tuple(sorted(variables, key=str)))
        if key not in self._derivatives:
            d = sp.diff(self.exprs[i], *key[1])
            self._derivatives[key] = float(d.evalf(30, subs=self.subs))
        return self._derivatives[key]

    def _tensor(self, slot_vars):
        """d^k f / d(slot_1)...d(slot_k) contracted later with probe vectors."""
        shape = (self.n,) + tuple(len(v) for v in slot_vars)
        out = np.zeros(shape)
        for i in range(self.n):
            for idx in itertools.product(*(range(len(v)) for v in slot_vars)):
                out[(i,) + idx] = self._derivative(i, [vs[j] for vs, j in zip(slot_vars, idx)])
        return out

    def _contract(self, slot_vars, probes):
        t = self._tensor(slot_vars)
        for p in reversed(probes):
            t = t @ np.asarray(p, float)
        return t

    def A(self):
        return self._tensor([self.xvars])

    def J1(self):
        return self._tensor([self.pvars])

    def B(self, u, v):
        return self._contract([self.xvars, self.xvars], [u, v])

    def A1(self, u, k):
        return self._contract([self.xvars, self.pvars], [u, k])

    def J2(self, k, m):
        return self._contract([self.pvars, self.pvars], [k, m])

    def C(self, u, v, w):
        return self._contract([self.xvars] * 3, [u, v, w])

    def B1(self, u, v, k):
        return self._contract([self.xvars, self.xvars, self.pvars], [u, v, k])

    def A2(self, u, k, m):
        return self._contract([self.xvars, self.pvars, self.pvars], [u, k, m])

    def J3(self, k, m, q):
        return self._contract([self.pvars] * 3, [k, m, q])


def random_cubic_model(rng, dim=2):
    """A random polynomial model of joint degree <= 3 with f(0, 0) = 0.

    Returns (model text, SymbolicForms at the origin).
    """
    xvars = sp.symbols(f"x1:{dim + 1}")
    pvars = sp.symbols("p1 p2")
    allv = list(xvars) + list(pvars)
    exprs = []
    text_rhs = []
    for _ in range(dim):
        expr = sp.Integer(0)
        terms = []
        for k in range(1, 4):
            for combo in itertools.combinations_with_replacement(range(len(allv)), k):
                if rng.random() < 0.4:
                    continue
                c = round(float(rng.uniform(-1.5, 1.5)), 3)
                if c == 0.0:
                    continue
                mono = sp.Integer(1)
                for j in combo:
                    mono *= allv[j]
                expr += c * mono
                terms.append("(%r)*%s" % (c, "*".join(str(allv[j]) for j in combo)))
        exprs.append(expr)
        text_rhs.append(" + ".join(terms) if terms else "0*x1")
    lines = [f"dim {dim}", "par p1 p2"]
    lines += [f"x{i + 1}' = {rhs}" for i, rhs in enumerate(text_rhs)]
    text = "\n".join(lines) + "\n"
    forms = SymbolicForms(exprs, xvars, pvars, np.zeros(dim), np.zeros(2))
    return text, forms


def model_forms(model, x0, alpha0):
    """SymbolicForms of a parsed model at (x0, alpha0), read from its code strings."""
    xvars = sp.symbols(f"x1:{model.dim + 1}")
    pvars = sp.symbols("p1 p2")
    ns = {"exp": sp.exp, "log": sp.log, "cosh": sp.cosh, "sinh": sp.sinh,
          "tanh": sp.tanh, "sqrt": sp.sqrt, "psi": lambda z: z / (sp.exp(z) - 1),
          "sech": lambda z: 1 / sp.cosh(z),
          **{f"_{j}": v for j, v in enumerate(xvars + pvars)}}   # model code's variables
    exprs = [eval(code, ns) for code in model.rhs]
    return SymbolicForms(exprs, xvars, pvars, x0, alpha0)
