import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bthom.model import (HH_BT_ALPHA, HH_BT_STATE, ModelEvalError,
                         NonEquilibriumError, OdeModel, ParseError, build_oracle,
                         builtin_model, derivatives, eval_rhs, parse_model)
from bthom.nfcoeffs import analyze_bt
from exact_forms import model_forms, random_cubic_model

TOP_NF = "dim 2\npar b1 b2\nx1' = x2\nx2' = b1 + b2*x2 + x1^2 + x1*x2\n"
EVERY_FUNCTION = ("dim 2\npar a b\n"
                  "x1' = exp(x1)*log(2 + x2 + a) + sqrt(3 + x1*b) - x2^-2\n"
                  "x2' = cosh(x1)*sinh(x2) + tanh(a - x1)*sech(x2 + b)"
                  " + psi(x1 + x2) + psi(x2 - 4*b)\n")


def planar(rhs2: str, head: str = ""):
    """The planar model x1' = x2, x2' = rhs2 with active parameters p1, p2."""
    return parse_model(f"dim 2\npar p1 p2\n{head}x1' = x2\nx2' = {rhs2}\n")


class TestParsing:
    def test_topological_normal_form(self):
        m = parse_model(TOP_NF)
        assert m.dim == 2
        assert m.active_params == ("b1", "b2")
        assert np.allclose(eval_rhs(m, [0, 0], [0, 0]), [0, 0])
        assert np.allclose(eval_rhs(m, [1, 1], [0, 0]), [1, 2])

    def test_missing_equation(self):
        with pytest.raises(ParseError, match="missing equation for x2"):
            parse_model("dim 2\npar b1 b2\nx1' = x1\n")

    def test_duplicate_equation(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_model("dim 2\npar a b\nx1' = x2\nx1' = x1\nx2' = x1\n")

    def test_unknown_identifier_reports_position(self):
        with pytest.raises(ParseError, match="unknown identifier 'y'"):
            parse_model("dim 2\npar a b\nx1' = x2\nx2' = y + x1\n")

    def test_wrong_parameter_count(self):
        with pytest.raises(ParseError, match="exactly 2 active"):
            parse_model("dim 2\npar a\nx1' = x2\nx2' = x1\n")

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse_model("dim 2\npar a b\nx1' = x2\nx2' = foo(x1)\n")

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError, match="integer"):
            parse_model("dim 2\npar a b\nx1' = x2\nx2' = x1^1.5\n")

    @pytest.mark.parametrize("rhs2, match", [
        pytest.param("x1**2", r"col 4: unexpected token '\*\*'", id="python-power"),
        pytest.param("x1^(2)", "integer", id="parenthesized-exponent"),
        pytest.param("x1^2^3", "integer", id="chained-power"),
        pytest.param("x1^--2", "integer", id="two-signed-exponent"),
        pytest.param("(" * 300 + "x1" + ")" * 300, "too many nested parentheses",
                     id="300-nested-parentheses"),
        pytest.param(" + ".join(["x1"] * 3000), "too long or nested too deeply",
                     id="3000-terms"),
        pytest.param("x1 + ()", "malformed", id="empty-parentheses"),
        pytest.param("(x1)(x2)", "malformed", id="call-of-a-state"),
        pytest.param("exp()", "malformed", id="call-without-argument"),
        pytest.param("x1 +", "malformed", id="truncated"),
        pytest.param("(x1", "malformed", id="unclosed-parenthesis"),
        pytest.param("x1 $ 2", r"col 5: unexpected token '\$'", id="stray-character"),
        pytest.param("x1, x2", "unexpected token ','", id="comma"),
        pytest.param("1e400*x1", "bad number '1e400'", id="overflowing-literal"),
        pytest.param("0x10*x1", "bad number '0x10'", id="hex-literal"),
    ])
    def test_rejected_expressions(self, rhs2, match):
        with pytest.raises(ParseError, match=match) as exc:
            planar(rhs2)
        assert exc.value.line == 4

    @pytest.mark.parametrize("rhs2, head, value, slope", [
        pytest.param("c^2*x1^2", "fix c -1\n", 9.0, 6.0, id="negative-fix-even-power"),
        pytest.param("c^2", "fix c -2\n", 4.0, 0.0, id="negative-fix-squared"),
        pytest.param("-c^2", "fix c -2\n", -4.0, 0.0, id="minus-negative-fix-squared"),
        pytest.param("-x1^2", "", -9.0, -6.0, id="power-binds-tighter-than-minus"),
        pytest.param(" + ".join(["x1"] * 250), "", 750.0, 250.0, id="250-terms"),
        pytest.param("-" * 2000 + "x1", "", 3.0, 1.0, id="2000-unary-minus"),
        pytest.param("- " * 2001 + "x1", "", -3.0, -1.0, id="2001-unary-minus"),
        pytest.param("lambda*x1", "fix lambda 2\n", 6.0, 2.0, id="keyword-as-fixed-name"),
        pytest.param("x1^-2", "", 1 / 9, -2 / 27, id="negative-exponent"),
        pytest.param("x1^+2 + +x1", "", 12.0, 7.0, id="unary-plus"),
        pytest.param("x1^2.0", "", 9.0, 6.0, id="integral-float-exponent"),
        pytest.param("x1^02 * 007", "", 63.0, 42.0, id="leading-zeros"),
    ])
    def test_accepted_expressions(self, rhs2, head, value, slope):
        """Values through numpy and d f2/d x1 through the jets, at x1 = 3."""
        m = planar(rhs2, head)
        assert eval_rhs(m, [3.0, 0.0], [0.0, 0.0])[1] == pytest.approx(value, rel=1e-15)
        J = derivatives(m, [3.0, 0.0], [0.0, 0.0])[0]
        assert J[1, 0] == pytest.approx(slope, rel=1e-15)

    @pytest.mark.parametrize("head, rhs2, plain_head, plain_rhs2", [
        pytest.param("par lambda exp\n", "lambda + exp*x2 + x1*x2 - exp(x1)",
                     "par p1 p2\n", "p1 + p2*x2 + x1*x2 - exp(x1)",
                     id="keyword-and-function-as-active-names"),
        pytest.param("par lambda exp\nfix if 2\n", "lambda + exp*x2 + if*x1^2 + exp(exp*x1)",
                     "par p1 p2\nfix c 2\n", "p1 + p2*x2 + c*x1^2 + exp(p2*x1)",
                     id="keyword-as-fixed-and-active-names"),
    ])
    def test_names_that_look_like_python(self, head, rhs2, plain_head, plain_rhs2):
        """Names like Python keywords or jet functions give the numbers of plain names."""
        m, plain = (parse_model(f"dim 2\n{h}x1' = x2\nx2' = {r}\n")
                    for h, r in ((head, rhs2), (plain_head, plain_rhs2)))
        x, alpha = np.array([[3.0, -0.5], [0.2, 1.0]]), np.array([[0.3, -0.7], [1.1, 0.4]])
        assert np.array_equal(eval_rhs(m, x, alpha), eval_rhs(plain, x, alpha))
        for t, t_plain in zip(derivatives(m, x, alpha, 3), derivatives(plain, x, alpha, 3)):
            assert np.array_equal(t, t_plain)

    @pytest.mark.parametrize("text, match, line", [
        pytest.param("dim two\npar p1 p2\n", "expected 'dim <n>'", 1, id="dim-not-a-number"),
        pytest.param("dim 2 3\npar p1 p2\n", "expected 'dim <n>'", 1, id="dim-arity"),
        pytest.param("par p1 p2\ndim 1\n", "dim must be at least 2", 2, id="dim-1"),
        pytest.param("dim 2\npar p1 p2\nfix c\n", "expected 'fix <name> <value>'", 3,
                     id="fix-arity"),
        pytest.param("dim 2\npar p1 p2\nfix c one\n", "bad value 'one'", 3, id="fix-value"),
        pytest.param("dim 2\npar p1 p2\ny' = x1\n", "bad equation head", 3,
                     id="bad-equation-head"),
        pytest.param("dim 2\npar p1 p2\nx1 = x2\n", "bad equation head", 3,
                     id="head-without-prime"),
        pytest.param("dim 2\npar p1 p2\nvar x\n", "unrecognized directive 'var'", 3,
                     id="unknown-directive"),
        pytest.param("par p1 p2\nx1' = x2\nx2' = p1\n", "missing 'dim'", 3, id="missing-dim"),
        pytest.param("dim 2\nx1' = x2\nx2' = x1\n", "exactly 2 active parameters", 3,
                     id="missing-par"),
        pytest.param("dim 2\npar x1 p2\nx1' = x2\nx2' = p2\n", "collides with a state", 1,
                     id="par-collides-with-state"),
        pytest.param("dim 2\npar p1 p2\nfix p1 1\nx1' = x2\nx2' = p1\n",
                     "collides with another name", 1, id="fix-collides-with-par"),
        pytest.param("dim 2\npar p1 p2\nx1' = x2\nx2' = p1\nx3' = p2\n",
                     "equation for x3 outside dim 2", 5, id="equation-outside-dim"),
    ])
    def test_directive_errors_name_their_line(self, text, match, line):
        with pytest.raises(ParseError, match=match) as exc:
            parse_model(text)
        assert exc.value.line == line

    def test_code_that_does_not_compile_names_its_position(self):
        # code that compiles but names an unknown variable or module fails here too
        for code in ("_0 +", "_0 + y", "np.exp(_0)"):
            with pytest.raises(ParseError, match="line 2: code of x2'"):
                OdeModel(dim=2, rhs=["_1", code], active_params=("p1", "p2"),
                         fixed_params={})

    def test_negative_fixed_parameter_gives_a(self):
        m = planar("p1 + p2*x2 + c^2*x1^2 + x1*x2", "fix c -1\n")
        _, ex = analyze_bt(m, [0.0, 0.0], [0.0, 0.0], "orbital")
        assert ex.a == 1.0

    def test_comments_fix_and_functions(self):
        text = ("# comment\ndim 2\npar a b  # active\nfix c 2.5\n"
                "x1' = c*sech(x2) - 2.5*exp(0*x1)\nx2' = a + b + psi(x1) - 1\n")
        m = parse_model(text)
        out = eval_rhs(m, [0.0, 0.0], [0.0, 0.0])
        assert np.allclose(out, [0.0, 0.0], atol=1e-15)

    def test_hodgkin_huxley_builtin(self):
        hh = builtin_model("hh")
        assert hh.dim == 4
        r = eval_rhs(hh, HH_BT_STATE, HH_BT_ALPHA)
        assert np.linalg.norm(r) < 1e-8


class TestEvaluation:
    def test_division_domain_error_reports_component(self):
        m = parse_model("dim 2\npar a b\nx1' = x2\nx2' = 1/x1\n")
        with pytest.raises(ModelEvalError, match="component 2"):
            eval_rhs(m, [0.0, 1.0], [0.0, 0.0])

    @pytest.mark.parametrize("rhs2", ["1/0 + x1", "0^-1 + x1", "2^2000*x1",
                                      "x1 + p1 + 10^400"])
    def test_constant_arithmetic_error_reports_component(self, rhs2):
        m = planar(rhs2)
        for evaluate in (eval_rhs, derivatives):
            with pytest.raises(ModelEvalError, match="component 2") as exc:
                evaluate(m, [1.0, 1.0], [0.0, 0.0])
            assert exc.value.component == 1

    @pytest.mark.parametrize("x, alpha", [([0.0], [0.0, 0.0]), ([0.0] * 3, [0.0, 0.0]),
                                          ([0.0, 0.0], [0.0]), ([0.0, 0.0], [0.0] * 3)],
                             ids=["state-1", "state-3", "params-1", "params-3"])
    def test_input_of_the_wrong_length_is_a_model_error(self, x, alpha):
        m = builtin_model("bt_nf")
        for evaluate in (eval_rhs, derivatives):
            with pytest.raises(ModelEvalError, match="expected") as exc:
                evaluate(m, x, alpha)
            assert exc.value.stage == "oracle" and exc.value.component is None

    def test_constant_component_in_a_batch(self):
        m = parse_model("dim 2\npar a b\nx1' = 2\nx2' = a + x1^2\n")
        xs = np.arange(10.0).reshape(5, 2)
        assert np.array_equal(eval_rhs(m, xs, [1.0, 0.0])[:, 0], np.full(5, 2.0))
        J, T2 = derivatives(m, xs, np.zeros(2), 2)
        assert J.shape == (5, 2, 4) and T2.shape == (5, 2, 4, 4)
        assert not J[:, 0].any() and np.array_equal(J[:, 1, 0], 2 * xs[:, 0])

    def test_batched_evaluation(self):
        m = parse_model(TOP_NF)
        xs = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
        out = eval_rhs(m, xs, np.zeros(2))
        assert out.shape == (3, 2)
        assert np.allclose(out[1], [1, 2])

    def test_psi_is_continuous_through_zero(self):
        m = parse_model("dim 2\npar a b\nx1' = psi(x2)\nx2' = x1\n")
        vals = [eval_rhs(m, [0.0, t], [0, 0])[0] for t in (-1e-9, 0.0, 1e-9)]
        assert np.allclose(vals, 1.0, atol=1e-8)


class TestOracle:
    def test_normal_form_b_and_c(self, bt_nf_orbital):
        oracle, _ = bt_nf_orbital
        assert np.allclose(oracle.B([1, 0], [1, 0]), [0.0, 2.0], atol=1e-9)
        rng = np.random.default_rng(3)
        for _ in range(4):
            q = rng.standard_normal(2)
            assert np.linalg.norm(oracle.C(q, q, q)) < 1e-8

    def test_forms_match_symbolic_on_random_cubics(self):
        rng = np.random.default_rng(42)
        for trial in range(3):
            text, sym = random_cubic_model(rng, dim=2 + trial % 2)
            m = parse_model(text, name=f"cubic{trial}")
            oracle = build_oracle(m, np.zeros(m.dim), np.zeros(2))
            probes = rng.uniform(-1, 1, size=(6, m.dim))
            ks = rng.uniform(-1, 1, size=(6, 2))
            assert np.allclose(oracle.A, sym.A(), atol=1e-7, rtol=1e-6)
            assert np.allclose(oracle.J1, sym.J1(), atol=1e-7, rtol=1e-6)
            u, v, w = probes[0], probes[1], probes[2]
            k, m2, q = ks[0], ks[1], ks[2]
            pairs = [
                (oracle.B(u, v), sym.B(u, v)),
                (oracle.A1(u, k), sym.A1(u, k)),
                (oracle.J2(k, m2), sym.J2(k, m2)),
                (oracle.C(u, v, w), sym.C(u, v, w)),
                (oracle.B1(u, v, k), sym.B1(u, v, k)),
                (oracle.A2(u, k, m2), sym.A2(u, k, m2)),
                (oracle.J3(k, m2, q), sym.J3(k, m2, q)),
            ]
            for got, want in pairs:
                scale = 1.0 + np.linalg.norm(want)
                assert np.linalg.norm(got - want) <= 1e-6 * scale

    def test_hh_forms_match_symbolic(self, hh_model):
        oracle = build_oracle(hh_model, HH_BT_STATE, HH_BT_ALPHA)
        sym = model_forms(hh_model, HH_BT_STATE, HH_BT_ALPHA)
        rng = np.random.default_rng(3)
        u, v, w = rng.standard_normal((3, 4))
        k, m2, q = rng.standard_normal((3, 2))
        pairs = [
            (oracle.A, sym.A()),
            (oracle.J1, sym.J1()),
            (oracle.B(u, v), sym.B(u, v)),
            (oracle.A1(u, k), sym.A1(u, k)),
            (oracle.J2(k, m2), sym.J2(k, m2)),
            (oracle.C(u, v, w), sym.C(u, v, w)),
            (oracle.B1(u, v, k), sym.B1(u, v, k)),
            (oracle.A2(u, k, m2), sym.A2(u, k, m2)),
            (oracle.J3(k, m2, q), sym.J3(k, m2, q)),
        ]
        for got, want in pairs:
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_derivatives_of_every_function_match_symbolic(self):
        # psi's arguments fall on both sides of its series radius
        model = parse_model(EVERY_FUNCTION)
        x0, alpha0 = np.array([0.3, -0.2]), np.array([0.1, 0.4])
        sym = model_forms(model, x0, alpha0)
        joint = sym.xvars + sym.pvars
        for k, got in enumerate(derivatives(model, x0, alpha0, 3), start=1):
            want = sym._tensor([joint] * k)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_symmetry_is_exact(self, hh_orbital):
        oracle, _ = hh_orbital
        rng = np.random.default_rng(5)
        u, v, w = rng.standard_normal((3, 4))
        assert np.array_equal(oracle.B(u, v), oracle.B(v, u))
        cuvw = oracle.C(u, v, w)
        for perm in ((u, w, v), (v, u, w), (w, v, u)):
            assert np.allclose(oracle.C(*perm), cuvw, rtol=0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(min_value=-8.0, max_value=8.0,
                       allow_nan=False, allow_infinity=False))
    def test_forms_scale_linearly_per_slot(self, c, hh_orbital):
        oracle, _ = hh_orbital
        rng = np.random.default_rng(17)
        u, v = rng.standard_normal((2, 4))
        base = oracle.B(u, v)
        got = oracle.B(u, c * v)
        assert np.linalg.norm(got - c * base) <= 1e-8 * (1.0 + abs(c) * np.linalg.norm(base))

    def test_batched_jacobian_equals_per_point(self, hh_model):
        rng = np.random.default_rng(7)
        xs = HH_BT_STATE + 0.05 * rng.standard_normal((6, 4))
        alphas = HH_BT_ALPHA + 0.05 * rng.standard_normal((6, 2))
        batched = derivatives(hh_model, xs, alphas)[0]
        assert batched.shape == (6, 4, 6)
        for i in range(6):
            single = derivatives(hh_model, xs[i], alphas[i])[0]
            assert np.array_equal(batched[i], single)

    def test_non_equilibrium_base_rejected(self, bt_nf_model):
        with pytest.raises(NonEquilibriumError):
            build_oracle(bt_nf_model, [0.5, 0.5], [0.0, 0.0])
