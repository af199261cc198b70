"""ODE models with two active parameters: parsing, evaluation, derivative oracle.

Model-file format (UTF-8, line oriented, ``#`` starts a comment)::

    dim <n>
    par <p1> <p2>          # the two active parameters
    fix <name> <value>     # optional, repeatable
    x1' = <expr>
    ...
    xn' = <expr>

Expressions support +, -, *, /, ^ (integer powers), parentheses, and the
functions exp, log, cosh, sinh, tanh, sech, sqrt and psi, where
psi(x) = x/(exp(x)-1) continued with psi(0) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ModelError",
    "ParseError",
    "ModelEvalError",
    "NonEquilibriumError",
    "OdeModel",
    "MultilinearOracle",
    "parse_model",
    "eval_rhs",
    "central_difference",
    "fd_jacobian",
    "build_oracle",
    "bt_nf_text",
    "hh_text",
    "builtin_model",
    "HH_BT_STATE",
    "HH_BT_ALPHA",
]

_EPS = float(np.finfo(float).eps)


class ModelError(Exception):
    pass


class ParseError(ModelError):
    def __init__(self, msg: str, line: int, col: int = 0):
        super().__init__(f"line {line}, col {col}: {msg}" if col else f"line {line}: {msg}")
        self.line = line
        self.col = col


class ModelEvalError(ModelError):
    def __init__(self, msg: str, component: int | None = None):
        super().__init__(msg if component is None else f"component {component + 1}: {msg}")
        self.component = component


class NonEquilibriumError(ModelError):
    pass


def _psi(x):
    """x / (exp(x) - 1), continued through x = 0."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-7
    den = np.where(small, 1.0, np.expm1(np.where(small, 0.0, x)))
    series = 1.0 - x / 2.0 + x * x / 12.0
    return np.where(small, series, x / den)


def _sech(x):
    return 1.0 / np.cosh(x)


_FUNCTIONS = {
    "exp": "np.exp",
    "log": "np.log",
    "cosh": "np.cosh",
    "sinh": "np.sinh",
    "tanh": "np.tanh",
    "sqrt": "np.sqrt",
    "sech": "_sech",
    "psi": "_psi",
}


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_OPS = set("+-*/^()")


def _tokenize(text: str, line: int):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            toks.append(("op", c, i + 1))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                val = float(text[i:j])
            except ValueError:
                raise ParseError(f"bad number {text[i:j]!r}", line, i + 1)
            toks.append(("num", val, i + 1))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], i + 1))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, i + 1)
    return toks


class _ExprParser:
    """Recursive descent over one right-hand-side expression."""

    def __init__(self, toks, line, names):
        self.toks = toks
        self.pos = 0
        self.line = line
        self.names = names  # identifier -> code fragment

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _next(self):
        t = self._peek()
        if t is None:
            raise ParseError("unexpected end of expression", self.line)
        self.pos += 1
        return t

    def _expect_op(self, op):
        t = self._next()
        if t[0] != "op" or t[1] != op:
            raise ParseError(f"expected {op!r}, got {t[1]!r}", self.line, t[2])

    def parse(self):
        node = self._expr()
        t = self._peek()
        if t is not None:
            raise ParseError(f"unexpected trailing token {t[1]!r}", self.line, t[2])
        return node

    def _expr(self):
        out = self._term()
        while (t := self._peek()) and t[0] == "op" and t[1] in "+-":
            self.pos += 1
            rhs = self._term()
            out = f"({out} {t[1]} {rhs})"
        return out

    def _term(self):
        out = self._unary()
        while (t := self._peek()) and t[0] == "op" and t[1] in "*/":
            self.pos += 1
            rhs = self._unary()
            out = f"({out} {t[1]} {rhs})"
        return out

    def _unary(self):
        t = self._peek()
        if t and t[0] == "op" and t[1] in "+-":
            self.pos += 1
            rhs = self._unary()
            return rhs if t[1] == "+" else f"(-{rhs})"
        return self._power()

    def _power(self):
        base = self._atom()
        t = self._peek()
        if t and t[0] == "op" and t[1] == "^":
            self.pos += 1
            expo = self._exponent()
            return f"({base} ** {expo})"
        return base

    def _exponent(self):
        sign = ""
        t = self._peek()
        if t and t[0] == "op" and t[1] in "+-":
            self.pos += 1
            sign = t[1]
            t = self._peek()
        if t is None or t[0] != "num" or t[1] != int(t[1]):
            raise ParseError("exponent must be an integer literal", self.line,
                             t[2] if t else 0)
        self.pos += 1
        return f"{sign}{int(t[1])}"

    def _atom(self):
        t = self._next()
        if t[0] == "num":
            return repr(t[1])
        if t[0] == "op" and t[1] == "(":
            inner = self._expr()
            self._expect_op(")")
            return f"({inner})"
        if t[0] == "ident":
            nxt = self._peek()
            if nxt and nxt[0] == "op" and nxt[1] == "(":
                if t[1] not in _FUNCTIONS:
                    raise ParseError(f"unknown function {t[1]!r}", self.line, t[2])
                self.pos += 1
                arg = self._expr()
                self._expect_op(")")
                return f"{_FUNCTIONS[t[1]]}({arg})"
            if t[1] not in self.names:
                raise ParseError(f"unknown identifier {t[1]!r}", self.line, t[2])
            return self.names[t[1]]
        raise ParseError(f"unexpected token {t[1]!r}", self.line, t[2])


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass
class OdeModel:
    """Parsed n-dimensional vector field with two active parameters.

    Immutable after construction; ``rhs`` holds compiled code strings, one per
    component, evaluated in a numpy namespace.
    """

    dim: int
    rhs: list[str]
    active_params: tuple[str, str]
    fixed_params: dict[str, float]
    name: str = "model"
    _component_fns: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        ns = {"np": np, "_psi": _psi, "_sech": _sech}
        self._component_fns = [
            eval(compile(f"lambda x, a: ({code}) + 0.0*x[..., 0]", f"<{self.name}:x{i+1}'>", "eval"), ns)
            for i, code in enumerate(self.rhs)
        ]

    def __call__(self, x, alpha):
        return eval_rhs(self, x, alpha)


def parse_model(text: str, name: str = "model") -> OdeModel:
    """Parse a model-file string into an :class:`OdeModel`."""
    dim = None
    active: list[str] = []
    fixed: dict[str, float] = {}
    eqs: dict[int, tuple[str, int]] = {}

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        if head == "dim":
            parts = line.split()
            if len(parts) != 2 or not parts[1].isdigit():
                raise ParseError("expected 'dim <n>'", lineno)
            dim = int(parts[1])
            if dim < 2:
                raise ParseError("dim must be at least 2", lineno)
        elif head == "par":
            parts = line.split()[1:]
            if len(parts) != 2:
                raise ParseError(f"expected exactly 2 active parameters, got {len(parts)}", lineno)
            active = parts
        elif head == "fix":
            parts = line.split()
            if len(parts) != 3:
                raise ParseError("expected 'fix <name> <value>'", lineno)
            try:
                fixed[parts[1]] = float(parts[2])
            except ValueError:
                raise ParseError(f"bad value {parts[2]!r}", lineno)
        elif "=" in line:
            lhs, expr = line.split("=", 1)
            lhs = lhs.strip()
            if not (lhs.endswith("'") and lhs[:-1].startswith("x") and lhs[1:-1].isdigit()):
                raise ParseError(f"bad equation head {lhs!r} (expected xi' = ...)", lineno)
            idx = int(lhs[1:-1])
            if idx in eqs:
                raise ParseError(f"duplicate equation for x{idx}", lineno)
            eqs[idx] = (expr, lineno)
        else:
            raise ParseError(f"unrecognized directive {head!r}", lineno)

    if dim is None:
        raise ParseError("missing 'dim' declaration", len(lines) or 1)
    if len(active) != 2:
        raise ParseError("expected exactly 2 active parameters ('par p1 p2')", len(lines) or 1)

    names = {f"x{i+1}": f"x[..., {i}]" for i in range(dim)}
    for j, p in enumerate(active):
        if p in names:
            raise ParseError(f"parameter {p!r} collides with a state name", 1)
        names[p] = f"a[..., {j}]"
    for p, v in fixed.items():
        if p in names:
            raise ParseError(f"fixed parameter {p!r} collides with another name", 1)
        names[p] = repr(v)

    rhs_code = []
    for i in range(1, dim + 1):
        if i not in eqs:
            raise ParseError(f"missing equation for x{i}", len(lines) or 1)
        expr, lineno = eqs[i]
        rhs_code.append(_ExprParser(_tokenize(expr, lineno), lineno, names).parse())
    for idx in eqs:
        if idx < 1 or idx > dim:
            raise ParseError(f"equation for x{idx} outside dim {dim}", eqs[idx][1])

    return OdeModel(dim=dim, rhs=rhs_code, active_params=tuple(active),
                    fixed_params=fixed, name=name)


def eval_rhs(model: OdeModel, x, alpha) -> np.ndarray:
    """Evaluate the vector field at state ``x`` and active parameters ``alpha``.

    Accepts single points (shape ``(n,)``/``(2,)``) or batches with matching
    leading dimensions; broadcasting follows numpy rules.
    """
    x = np.asarray(x, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if x.shape[-1] != model.dim:
        raise ModelEvalError(f"state has dimension {x.shape[-1]}, expected {model.dim}")
    if alpha.shape[-1] != 2:
        raise ModelEvalError(f"expected 2 active parameters, got {alpha.shape[-1]}")
    with np.errstate(all="ignore"):
        cols = [fn(x, alpha) for fn in model._component_fns]
    for i, c in enumerate(cols):
        if not np.all(np.isfinite(c)):
            raise ModelEvalError("non-finite value (domain error in expression)", component=i)
    return np.stack(np.broadcast_arrays(*cols), axis=-1)


# ---------------------------------------------------------------------------
# central differences and the multilinear derivative oracle
# ---------------------------------------------------------------------------

def central_difference(model: OdeModel, x, alpha, dirs, h, k: int = 1) -> np.ndarray:
    """k-th central-difference quotient (k = 1, 2, 3) of f along joint directions.

    Approximates d^k/dt^k f(x + t dx, alpha + t dalpha) at t = 0 for each row
    (dx, dalpha) of ``dirs`` (shape ``(m, n + 2)``), at the base point(s)
    ``x`` (``(..., n)``) and ``alpha`` (``(..., 2)``).  ``h`` is the step,
    a scalar or one per base point and direction (broadcast to ``(..., m)``).
    All stencil points go to one batched :func:`eval_rhs` call.  Returns
    shape ``(..., m, n)``.
    """
    n = model.dim
    x = np.asarray(x, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    offsets = np.array({1: (1, -1), 2: (1, 0, -1), 3: (2, 1, -1, -2)}[k], dtype=float)
    h_m = np.asarray(h, dtype=float) * np.ones(len(dirs))             # (..., m)
    steps = (offsets[:, None] * h_m[..., None, :])[..., None] * dirs   # (..., p, m, n + 2)
    F = eval_rhs(model, x[..., None, None, :] + steps[..., :n],
                 alpha[..., None, None, :] + steps[..., n:])
    F = np.moveaxis(F, -3, 0)
    # a scalar step stays a scalar: numpy's array power may round
    # differently from the scalar one
    if np.ndim(h):
        h = h_m[..., None]
    if k == 1:
        return (F[0] - F[1]) / (2 * h)
    if k == 2:
        return (F[0] - 2 * F[1] + F[2]) / (h * h)
    return (F[0] - 2 * F[1] + 2 * F[2] - F[3]) / (2 * h ** 3)


def fd_jacobian(model: OdeModel, x, alpha, hx, ha=None) -> np.ndarray:
    """The Jacobian ``[f_x | f_alpha]`` (shape ``(..., n, n + 2)``) by central differences.

    ``hx`` and ``ha`` are the state and parameter steps (``ha`` defaults to
    ``hx``), scalars or one per base point.
    """
    n = model.dim
    hx = np.asarray(hx, dtype=float)[..., None]
    ha = hx if ha is None else np.asarray(ha, dtype=float)[..., None]
    hx, ha = np.broadcast_arrays(hx, ha)
    h = np.concatenate([np.repeat(hx, n, axis=-1), np.repeat(ha, 2, axis=-1)], axis=-1)
    J = central_difference(model, x, alpha, np.eye(n + 2), h)
    return np.ascontiguousarray(np.swapaxes(J, -1, -2))


@dataclass
class MultilinearOracle:
    """Directional finite-difference multilinear forms of f at a base point.

    A and J1 are dense Jacobians; the higher forms B, C, A1, J2, B1, A2, J3
    are evaluated on demand along probe vectors using central differences and
    polarization identities, and are exactly symmetric by construction.
    ``h`` rescales the default machine-epsilon based steps.
    """

    model: OdeModel
    x0: np.ndarray
    alpha0: np.ndarray
    h: float = 1.0
    A: np.ndarray = field(init=False)
    J1: np.ndarray = field(init=False)

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        self.alpha0 = np.asarray(self.alpha0, dtype=float)
        n = self.model.dim
        scale = 1.0 + np.linalg.norm(self.x0)
        # the k-th difference quotient balances truncation and rounding error
        # at a step of order eps^(1/(k+2))
        self._step = {k: self.h * _EPS ** (1.0 / (k + 2)) * scale for k in (1, 2, 3)}
        J = fd_jacobian(self.model, self.x0, self.alpha0, self._step[1])
        self.A, self.J1 = J[:, :n].copy(), J[:, n:].copy()

    def _form(self, *zs):
        """Symmetric bi- or trilinear form of f on joint (x, alpha) vectors.

        The probes are taken in a canonical order, so the returned values are
        bitwise independent of the slot order.
        """
        n = self.model.dim
        zs = sorted(zs, key=lambda z: z.tobytes())
        norms = [math.hypot(np.linalg.norm(z[:n]), np.linalg.norm(z[n:])) for z in zs]
        if 0.0 in norms:
            return np.zeros(n)
        e = [z / nrm for z, nrm in zip(zs, norms)]
        if len(e) == 2:
            d = central_difference(self.model, self.x0, self.alpha0,
                                   [e[0] + e[1], e[0] - e[1]], self._step[2], 2)
            val = 0.25 * (d[0] - d[1])
        else:
            e1, e2, e3 = e
            d = central_difference(self.model, self.x0, self.alpha0,
                                   [e1 + e2 + e3, e1 + e2, e1 + e3, e2 + e3, e1, e2, e3],
                                   self._step[3], 3)
            val = (d[0] - d[1] - d[2] - d[3] + d[4] + d[5] + d[6]) / 6.0
        for nrm in norms:
            val = val * nrm
        return val

    def _z(self, u=None, k=None):
        """The joint vector (u, k); a missing part is zero."""
        return np.concatenate([np.zeros(self.model.dim) if u is None else np.asarray(u, float),
                               np.zeros(2) if k is None else np.asarray(k, float)])

    # -- the standard forms --------------------------------------------------

    def B(self, u, v):
        return self._form(self._z(u), self._z(v))

    def A1(self, u, k):
        return self._form(self._z(u), self._z(k=k))

    def J2(self, k, l):
        return self._form(self._z(k=k), self._z(k=l))

    def C(self, u, v, w):
        return self._form(self._z(u), self._z(v), self._z(w))

    def B1(self, u, v, k):
        return self._form(self._z(u), self._z(v), self._z(k=k))

    def A2(self, u, k, l):
        return self._form(self._z(u), self._z(k=k), self._z(k=l))

    def J3(self, k, l, m):
        return self._form(self._z(k=k), self._z(k=l), self._z(k=m))

    def rhs(self, x, alpha):
        return eval_rhs(self.model, x, alpha)


def build_oracle(model: OdeModel, x0, alpha0, h: float = 1.0) -> MultilinearOracle:
    """Build the derivative oracle at an approximate equilibrium (x0, alpha0)."""
    if h <= 0:
        raise ValueError("step scale h must be positive")
    x0 = np.asarray(x0, dtype=float)
    alpha0 = np.asarray(alpha0, dtype=float)
    res = np.linalg.norm(eval_rhs(model, x0, alpha0))
    if res > 1e-6 * (1.0 + np.linalg.norm(x0)):
        raise NonEquilibriumError(
            f"||f(x0, alpha0)|| = {res:.3e} exceeds equilibrium tolerance")
    return MultilinearOracle(model=model, x0=x0, alpha0=alpha0, h=h)


# ---------------------------------------------------------------------------
# builtin models
# ---------------------------------------------------------------------------

def bt_nf_text(a=1.0, b=1.0, c1=0.0, d=0.0, e=0.0, a1=0.0, b1=0.0) -> str:
    """Planar Bogdanov-Takens normal-form family with optional extra terms.

    x2' = p1 + p2*x2 + (a + a1*p2)*x1^2 + (b + b1*p2)*x1*x2
          + d*x1^3 + e*x1^2*x2 + c1*p2^3
    """
    a, b, c1 = float(a), float(b), float(c1)
    d, e, a1, b1 = float(d), float(e), float(a1), float(b1)
    terms = [f"({a!r})*x1^2", f"({b!r})*x1*x2"]
    if a1:
        terms.append(f"({a1!r})*p2*x1^2")
    if b1:
        terms.append(f"({b1!r})*p2*x1*x2")
    if d:
        terms.append(f"({d!r})*x1^3")
    if e:
        terms.append(f"({e!r})*x1^2*x2")
    if c1:
        terms.append(f"({c1!r})*p2^3")
    rhs2 = "p1 + p2*x2 + " + " + ".join(terms)
    return f"dim 2\npar p1 p2\nx1' = x2\nx2' = {rhs2}\n"


def hh_text() -> str:
    """Hodgkin-Huxley membrane equations with (VK, I) as active parameters.

    States: x1 = V, x2 = m, x3 = n, x4 = h.  Temperature fixed at 6.3 C.  The
    gating equations carry a rate factor 0.1; that is the convention under
    which (HH_BT_STATE, HH_BT_ALPHA) is a Bogdanov-Takens point with critical
    coefficients a = 2.5515e-5, b = -0.0075.  With rate factor 1 the point is
    still an equilibrium, but its linearization has no double zero.
    """
    return "\n".join([
        "dim 4",
        "par vk i",
        "fix gna 120.0",
        "fix gk 36.0",
        "fix gl 0.3",
        "fix vna -115.0",
        "fix vl 10.599",
        "fix phi 0.1",
        "x1' = -(gna*x2^3*x4*(x1 - vna) + gk*x3^4*(x1 - vk) + gl*(x1 - vl)) + i",
        "x2' = phi*((1 - x2)*psi((x1 + 25)/10) - 4*x2*exp(x1/18))",
        "x3' = phi*(0.1*(1 - x3)*psi((x1 + 10)/10) - 0.125*x3*exp(x1/80))",
        "x4' = phi*(0.07*(1 - x4)*exp(x1/20) - x4/(1 + exp((x1 + 30)/10)))",
        "",
    ])


# Bogdanov-Takens point of the Hodgkin-Huxley equations: state (V, m, n, h)
# and active parameters (VK, I).
HH_BT_STATE = np.array([
    -2.835463618170097,
    0.07351498630356315,
    0.361877602925177,
    0.494859128785482,
])
HH_BT_ALPHA = np.array([-4.977020454108788, -0.06185214966177632])


def builtin_model(name: str, **coeffs) -> OdeModel:
    """Return a bundled model by name ('bt_nf' or 'hh')."""
    if name == "bt_nf":
        return parse_model(bt_nf_text(**coeffs), name="bt_nf")
    if name == "hh":
        if coeffs:
            raise ValueError("the 'hh' builtin takes no coefficients")
        return parse_model(hh_text(), name="hh")
    raise ValueError(f"unknown builtin model {name!r}")
