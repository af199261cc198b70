"""ODE models with two active parameters: parsing, evaluation, derivative oracle.

Model-file format (UTF-8, line oriented, ``#`` starts a comment)::

    dim <n>
    par <p1> <p2>          # the two active parameters
    fix <name> <value>     # optional, repeatable
    x1' = <expr>
    ...
    xn' = <expr>

Expressions support +, -, *, /, ^ (powers by integer literals, binding tighter
than unary minus), parentheses, and the functions exp, log, cosh, sinh, tanh,
sech, sqrt and psi, where psi(x) = x/(exp(x)-1) continued with psi(0) = 1.
"""

from __future__ import annotations

import ast
import io
import itertools
import math
import tokenize
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import jet
from .errors import BthomError
from .jet import Jet

__all__ = [
    "ModelError",
    "ParseError",
    "ModelEvalError",
    "NonEquilibriumError",
    "OdeModel",
    "MultilinearOracle",
    "parse_model",
    "eval_rhs",
    "derivatives",
    "build_oracle",
    "bt_nf_text",
    "hh_text",
    "builtin_model",
    "HH_BT_STATE",
    "HH_BT_ALPHA",
]

class ModelError(BthomError):
    pass


class ParseError(ModelError):
    stage = "parse"

    def __init__(self, msg: str, line: int, col: int = 0):
        super().__init__(f"line {line}, col {col}: {msg}" if col else f"line {line}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


class ModelEvalError(ModelError):
    stage = "oracle"

    def __init__(self, msg: str, component: int | None = None):
        super().__init__(msg if component is None else f"component {component + 1}: {msg}")
        self.component = component


class NonEquilibriumError(ModelError):
    stage = "locate"


# the functions model code may call, its namespace: each takes arrays and jets alike
_FUNCTIONS = {name: getattr(jet, name)
              for name in ("exp", "log", "cosh", "sinh", "tanh", "sqrt", "sech", "psi")}


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

_OPERATORS = {"+", "-", "*", "/", "^", "(", ")"}
_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Constant, ast.Name,
          ast.Load, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub)


def _expr_code(text: str, line: int, names: dict) -> str:
    """The Python code of one right-hand side; any failure is a ParseError on ``line``.

    Python's tokenizer splits ``text`` (columns are 1-based in it).  Names map
    through ``names`` unless they are _FUNCTIONS, ``^`` becomes ``**``, unary plus
    is dropped and numbers become floats, except an exponent, an int for Jet.__pow__.
    The code is parsed and checked once, by :class:`OdeModel`.
    """
    toks = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if toks and tok.type == toks[-1].type == tokenize.NUMBER and tok.start == toks[-1].end:
                last = toks.pop()                       # Python splits 007 into 00 and 7
                tok = last._replace(string=last.string + tok.string)
            if tok.string.strip():
                toks.append(tok)
    except (tokenize.TokenError, SyntaxError) as exc:     # e.g. an unclosed parenthesis
        raise ParseError(f"malformed expression ({exc.args[0]})", line) from None
    out, before = [], ("", "")                          # the two tokens before tok
    for tok, after in zip(toks, [t.string for t in toks[1:]] + [""]):
        s, col = tok.string, tok.start[1] + 1
        if tok.type == tokenize.NAME:
            table, kind = (_FUNCTIONS, "function") if after == "(" else (names, "identifier")
            if s not in table:
                raise ParseError(f"unknown {kind} {s!r}", line, col)
            out.append(s if table is _FUNCTIONS else table[s])
        elif tok.type == tokenize.NUMBER:
            try:
                v = float(s)
            except ValueError:
                v = math.nan
            if not math.isfinite(v):
                raise ParseError(f"bad number {s!r}", line, col)
            exponent = before[1] == "^" or before[0] == "^" and before[1] in ("+", "-")
            out.append(str(int(v)) if exponent and v.is_integer() else repr(v))
        elif tok.type != tokenize.OP or s not in _OPERATORS:
            raise ParseError(f"unexpected token {s!r}", line, col)
        elif not (s == "+" and before[1] in ("", "+", "-", "*", "/", "^", "(")):
            out.append("**" if s == "^" else s)
        before = (before[1], s)
    return " ".join(out)


def _check_tree(tree: ast.AST, variables, line: int) -> None:
    """A ParseError on ``line`` unless the tree holds only arithmetic,
    one-argument calls of _FUNCTIONS, integer exponents with at most one sign,
    and names that are ``variables`` or _FUNCTIONS."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            e = node.right.operand if isinstance(node.right, ast.UnaryOp) else node.right
            if not (isinstance(e, ast.Constant) and type(e.value) is int):
                raise ParseError("exponent must be an integer literal", line)
        if isinstance(node, ast.Name) and node.id not in variables and node.id not in _FUNCTIONS:
            raise ParseError(f"names {node.id}, neither a variable nor a function", line)
        if not isinstance(node, _NODES) or isinstance(node, ast.Call) and (
                len(node.args) != 1 or not isinstance(node.func, ast.Name)
                or node.func.id not in _FUNCTIONS):
            raise ParseError("malformed expression", line)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass
class OdeModel:
    """Parsed n-dimensional vector field with two active parameters.

    Immutable after construction; ``rhs`` holds Python code strings, one per
    component, in the names ``_0`` .. ``_{n+1}`` of the n states and then the
    two active parameters.  Each compiles once to a function of these n + 2
    variables and the functions of :mod:`bthom.jet`, which take plain arrays
    and Taylor jets alike: :func:`eval_rhs` runs them on arrays and
    :func:`derivatives` on jets.  Construction is the one parse, tree check and
    compile of each component: code that does not compile, or that holds more
    than arithmetic, one-argument calls of those functions, integer exponents
    and these variables, is a :class:`ParseError` naming the component, its
    line the position in rhs, raised from the reason.
    """

    dim: int
    rhs: list[str]
    active_params: tuple[str, str]
    fixed_params: dict[str, float]
    name: str = "model"
    _fns: list = field(init=False, repr=False)
    _reads: tuple = field(init=False, repr=False)

    def __post_init__(self):
        variables = [f"_{j}" for j in range(self.dim + 2)]
        self._fns, reads = [], []
        for i, code in enumerate(self.rhs):
            where = f"<{self.name}:x{i+1}'>"
            try:
                tree = ast.parse(code, where, "eval")
                fn = compile(f"lambda {', '.join(variables)}: {code}", where, "eval")
                _check_tree(tree, variables, i + 1)
            except ParseError as exc:
                raise ParseError(f"code of x{i+1}': {exc.msg}", i + 1) from exc
            except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
                raise ParseError(f"code of x{i+1}' does not compile ({exc})", i + 1) from exc
            self._fns.append(eval(fn, dict(_FUNCTIONS)))   # eval adds __builtins__ to a copy
            names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            reads.append(tuple(v in names for v in variables))
        self._reads = tuple(reads)

    @property
    def reads(self) -> tuple[tuple[bool, ...], ...]:
        """Per component, which of the n + 2 variables (x, alpha) its code names."""
        return self._reads


def parse_model(text: str, name: str = "model") -> OdeModel:
    """Parse a model-file string into an :class:`OdeModel`.  A right-hand
    side that the model refuses is a ParseError at its line, giving the reason."""
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

    names = {f"x{i+1}": f"_{i}" for i in range(dim)}
    for j, p in enumerate(active):
        if p in names:
            raise ParseError(f"parameter {p!r} collides with a state name", 1)
        names[p] = f"_{dim + j}"
    for p, v in fixed.items():
        if p in names:
            raise ParseError(f"fixed parameter {p!r} collides with another name", 1)
        names[p] = f"({v!r})"

    rhs_code = []
    for i in range(1, dim + 1):
        if i not in eqs:
            raise ParseError(f"missing equation for x{i}", len(lines) or 1)
        expr, lineno = eqs[i]
        rhs_code.append(_expr_code(expr, lineno, names))
    for idx in eqs:
        if idx < 1 or idx > dim:
            raise ParseError(f"equation for x{idx} outside dim {dim}", eqs[idx][1])

    try:
        return OdeModel(dim=dim, rhs=rhs_code, active_params=tuple(active),
                        fixed_params=fixed, name=name)
    except ParseError as exc:                   # exc.line is the component
        why = exc.__cause__
        if isinstance(why, ParseError):
            why = why.msg
        elif isinstance(why, (SyntaxError, ValueError)):
            why = f"malformed expression ({why.args[0]})"
        else:
            why = "expression too long or nested too deeply"
        raise ParseError(why, eqs[exc.line][1]) from None


def eval_rhs(model: OdeModel, x, alpha) -> np.ndarray:
    """Evaluate the vector field at state ``x`` and active parameters ``alpha``.

    Accepts single points (shape ``(n,)``/``(2,)``) or batches with matching
    leading dimensions; broadcasting follows numpy rules.
    """
    return np.stack(np.broadcast_arrays(*[c for c, in _columns(model, x, alpha)]), axis=-1)


# ---------------------------------------------------------------------------
# Taylor-jet derivatives and the multilinear derivative oracle
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _polarization(d: int, order: int):
    """Jet directions in R^d and the maps from their coefficients to tensors.

    The directions are e_a + e_b + ... over every multiset {a, b, ...} of 1
    to ``order`` indices, the unit vectors first.  The k-th derivative at a
    sorted k-tuple mu is the polarization sum over the sub-multisets S of mu
    of (-1)^(k - |S|) times the k-th coefficient along the direction of S.
    Returns the directions and, for k = 2..order, the matrix of these weights
    and the (d,)*k array of the row of each tensor entry.
    """
    tuples = [t for k in range(1, order + 1)
              for t in itertools.combinations_with_replacement(range(d), k)]
    column = {t: c for c, t in enumerate(tuples)}
    maps = []
    for k in range(2, order + 1):
        rows = [t for t in tuples if len(t) == k]
        W = np.zeros((len(rows), len(tuples)))
        for r, mu in enumerate(rows):
            for size in range(1, k + 1):
                for sub in itertools.combinations(mu, size):
                    W[r, column[sub]] += (-1) ** (k - size)
        pos = [rows.index(tuple(sorted(i))) for i in itertools.product(range(d), repeat=k)]
        maps.append((W, np.reshape(pos, (d,) * k)))
    return np.array([np.bincount(t, minlength=d) for t in tuples], dtype=float), maps


def _columns(model: OdeModel, x, alpha, order: int = 0) -> list:
    """The Taylor coefficients of each component of f at (x, alpha): its value,
    broadcast to the batch of x, at ``order`` 0, else those of its order-``order``
    jet along the directions of :func:`_polarization`.  Inputs of the wrong
    length, arithmetic errors and non-finite values raise :class:`ModelEvalError`;
    the last two name the component.
    """
    n, x, alpha = model.dim, np.asarray(x, dtype=float), np.asarray(alpha, dtype=float)
    if x.shape[-1] != n or alpha.shape[-1] != 2:
        raise ModelEvalError(f"state and parameters have lengths {x.shape[-1]} and "
                             f"{alpha.shape[-1]}, expected {n} and 2")
    args = [x[..., i] for i in range(n)] + [alpha[..., j] for j in range(2)]
    if order:
        dirs = _polarization(n + 2, order)[0]
        args = [Jet(v[..., None], dirs[:, j], *[0.0] * (order - 1)) for j, v in enumerate(args)]
    cols = []
    with np.errstate(all="ignore"):
        for i, fn in enumerate(model._fns):
            try:
                c = fn(*args)
            except ArithmeticError as exc:     # constant subexpressions: 1/0, 10^400
                raise ModelEvalError(f"{type(exc).__name__}: {exc}", component=i) from None
            c = c.c if isinstance(c, Jet) else (c if order else c + 0.0 * x[..., 0],)
            if not all(np.isfinite(ck).all() for ck in c):
                raise ModelEvalError("non-finite value (domain error in expression)",
                                     component=i)
            cols.append(c)
    return cols


def derivatives(model: OdeModel, x, alpha, order: int = 1) -> list[np.ndarray]:
    """Derivatives of f over the joint (x, alpha) space of d = n + 2 variables.

    Returns [J, T2, T3][:order]: the Jacobian [f_x | f_alpha], shape
    ``(..., n, d)``, and the symmetric second and third derivative tensors,
    ``(..., n, d, d)`` and ``(..., n, d, d, d)``, at the base point(s) ``x``
    (``(..., n)``) and ``alpha`` (``(..., 2)``).  All come from one batched
    model evaluation on order-``order`` Taylor jets along the directions of
    :func:`_polarization` (Griewank, Utke & Walther, Math. Comp. 69, 2000).
    Each tensor is exact up to rounding relative to its largest entries: the
    polarization subtracts directional coefficients, so a small mixed entry
    next to large pure ones carries their rounding error.  The model code is
    the one :func:`eval_rhs` runs, through the same checks: inputs of the
    wrong length and non-finite values raise :class:`ModelEvalError`.
    """
    n = model.dim
    dirs, maps = _polarization(n + 2, order)
    cols = _columns(model, x, alpha, order)
    batch = np.broadcast_shapes(np.shape(x)[:-1], np.shape(alpha)[:-1])
    coeffs = np.zeros((order + 1,) + batch + (n, len(dirs)))
    for i, col in enumerate(cols):
        for k, c in enumerate(col):
            coeffs[k, ..., i, :] = c
    return [coeffs[1][..., :n + 2]] + [(ck @ W.T)[..., pos]
                                        for ck, (W, pos) in zip(coeffs[2:], maps)]


@dataclass
class MultilinearOracle:
    """Exact multilinear forms of f at a base point.

    One batched order-3 jet call at construction gives the Jacobians A and
    J1 and the symmetric second and third derivative tensors T2, T3 over the
    joint (x, alpha) space; B, C, A1, J2, B1, A2 and J3 are contractions of
    their (x, x), (x, alpha) and (alpha, alpha) blocks, sliced once with the
    alpha slots last.  T3 holds n (n + 2)^3 numbers, like MatCont's symbolic
    third derivative tensor.
    """

    model: OdeModel
    x0: np.ndarray
    alpha0: np.ndarray
    A: np.ndarray = field(init=False)
    J1: np.ndarray = field(init=False)
    T2: np.ndarray = field(init=False, repr=False)
    T3: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        self.alpha0 = np.asarray(self.alpha0, dtype=float)
        n = self.model.dim
        J, self.T2, self.T3 = derivatives(self.model, self.x0, self.alpha0, 3)
        self.A, self.J1 = J[:, :n], J[:, n:]
        # (degree, parameter slots) -> the block, its state slots first
        self._blocks = {(k, na): np.ascontiguousarray(
            T[(slice(None),) + (slice(None, n),) * (k - na) + (slice(n, None),) * na])
            for k, T in ((2, self.T2), (3, self.T3)) for na in range(k + 1)}

    def _form(self, xs, ks):
        """Symmetric bi- or trilinear form of f on state probes xs and parameter
        probes ks.

        The parameter probes are contracted first, then the state probes, each
        kind in a canonical order, so the returned values are bitwise
        independent of the slot order.
        """
        t = self._blocks[len(xs) + len(ks), len(ks)]
        for zs in (ks, xs):
            for z in sorted((np.asarray(z, float) for z in zs), key=lambda z: z.tobytes()):
                t = t @ z
        return t

    # -- the standard forms --------------------------------------------------

    def B(self, u, v):
        return self._form((u, v), ())

    def A1(self, u, k):
        return self._form((u,), (k,))

    def J2(self, k, l):
        return self._form((), (k, l))

    def C(self, u, v, w):
        return self._form((u, v, w), ())

    def B1(self, u, v, k):
        return self._form((u, v), (k,))

    def A2(self, u, k, l):
        return self._form((u,), (k, l))

    def J3(self, k, l, m):
        return self._form((), (k, l, m))


def build_oracle(model: OdeModel, x0, alpha0) -> MultilinearOracle:
    """Build the derivative oracle at an approximate equilibrium (x0, alpha0)."""
    x0 = np.asarray(x0, dtype=float)
    alpha0 = np.asarray(alpha0, dtype=float)
    res = math.hypot(*eval_rhs(model, x0, alpha0))      # norms that cannot overflow
    if res > 1e-6 * (1.0 + math.hypot(*x0)):
        raise NonEquilibriumError(
            f"||f(x0, alpha0)|| = {res:.3e} exceeds equilibrium tolerance")
    return MultilinearOracle(model=model, x0=x0, alpha0=alpha0)


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
