import json
import re

import numpy as np
import pytest

import bthom
from bthom.cli import UsageError, _parse_amplitudes, main
from bthom.errors import BthomError
from bthom.linalg import BorderedSingularError
from bthom.predictor import NoConvergenceError


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLpSeries:
    def test_exact_rational_csv(self, capsys, tmp_path):
        out = tmp_path / "coeffs.csv"
        code, stdout, _ = run(["lpseries", "--order", "4", "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "i,tau_i,sigma_i"
        assert lines[1] == "0,10/7,6"
        assert lines[3] == "2,288/2401,18/49"
        side = json.loads((tmp_path / "coeffs.json").read_text())
        assert side["omega1"] == ["0", "-6/7"]
        assert side["omega3"] == ["0", "-198/2401", "0", "18/343"]

    def test_sidecar_beside_an_output_in_a_dotted_directory(self, capsys, tmp_path):
        (tmp_path / "run.v2").mkdir()
        out = tmp_path / "run.v2" / "series"
        code, _, _ = run(["lpseries", "--order", "2", "--out", str(out)], capsys)
        assert code == 0
        assert out.read_text().startswith("i,tau_i,sigma_i\n")
        assert "omega1" in json.loads((tmp_path / "run.v2" / "series.json").read_text())
        assert not (tmp_path / "run.json").exists()

    def test_output_at_the_sidecar_path_is_a_usage_error(self, capsys, tmp_path):
        out = tmp_path / "series.json"
        with pytest.raises(SystemExit) as exc:
            main(["lpseries", "--order", "2", "--out", str(out)])
        assert exc.value.code == 2
        assert "sidecar" in capsys.readouterr().err.splitlines()[-1]
        assert not out.exists()


class TestAnalyze:
    def test_builtin_normal_form(self, capsys, tmp_path):
        out = tmp_path / "cm.json"
        code, stdout, _ = run(["analyze", "--model", "bt_nf", "--out", str(out)],
                              capsys)
        assert code == 0
        assert "a = 1" in stdout
        data = json.loads(out.read_text())
        assert np.allclose(data["orbital"]["K10"], [1, 0], atol=1e-10)
        assert np.allclose(data["orbital"]["H3000"], [0, 0], atol=1e-9)

    def test_hh_reports_printed_coefficients(self, capsys):
        code, stdout, _ = run(["analyze", "--model", "hh"], capsys)
        assert code == 0
        a_line = [ln for ln in stdout.splitlines() if "a =" in ln][0]
        a_val = float(a_line.split("a =")[1].split()[0])
        assert a_val == pytest.approx(2.5515e-5, rel=1e-3)

    def test_non_bt_equilibrium_exits_3(self, capsys, tmp_path):
        model = tmp_path / "m.txt"
        model.write_text("dim 2\npar p1 p2\nx1' = -x1 + p1\nx2' = -2*x2 + p2\n")
        code, _, err = run(["analyze", "--model", str(model),
                            "--x0", "0,0", "--alpha0", "0,0"], capsys)
        assert code == 3
        assert err.startswith("error: ") and err.rstrip().endswith("(stage: eig)")

    def test_negative_fixed_parameter_under_even_power(self, capsys, tmp_path):
        model = tmp_path / "m.txt"
        model.write_text("dim 2\npar p1 p2\nfix c -1\nx1' = x2\n"
                         "x2' = p1 + p2*x2 + c^2*x1^2 + x1*x2\n")
        code, stdout, _ = run(["analyze", "--model", str(model),
                               "--x0", "0,0", "--alpha0", "0,0"], capsys)
        assert code == 0
        assert stdout.startswith("variant orbital: a = 1 ")

    @pytest.mark.parametrize("rhs2", ["x1 +", "x1**2", " + ".join(["x1"] * 3000)],
                             ids=["truncated", "python-power", "3000-terms"])
    def test_malformed_model_exits_2(self, rhs2, capsys, tmp_path):
        model = tmp_path / "m.txt"
        model.write_text(f"dim 2\npar p1 p2\nx1' = x2\nx2' = {rhs2}\n")
        code, _, err = run(["analyze", "--model", str(model),
                            "--x0", "0,0", "--alpha0", "0,0"], capsys)
        assert code == 2
        assert err.startswith("model error: line 4")
        assert err.rstrip().endswith("(stage: parse)")

    def test_non_generic_exits_3(self, capsys):
        code, _, err = run(["analyze", "--model", "bt_nf", "--coeff", "a=0"], capsys)
        assert code == 3
        assert err.startswith("error: ") and err.endswith("(stage: cm)\n")

    @pytest.mark.parametrize("error", [BorderedSingularError, NoConvergenceError])
    def test_numeric_error_exits_3(self, error, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise error("forced")

        monkeypatch.setattr("bthom.cli.analyze_bt", fail)
        code, _, err = run(["analyze", "--model", "bt_nf"], capsys)
        assert code == 3
        assert err.splitlines()[-1] == f"error: forced (stage: {error.stage})"

    @pytest.mark.parametrize("argv", [
        ["predict", "--model", "bt_nf", "--eps", "1e300", "--ntst", "10"],
        ["converge", "--model", "bt_nf", "--amplitudes", "1e300", "--orders", "3",
         "--methods", "lp", "--ntst", "10"],
        ["compare", "--model", "bt_nf", "--eps-range", "1e300:1e301:2"],
        ["predict", "--model", "bt_nf", "--k", "1e-300", "--ntst", "10"],
        ["converge", "--model", "bt_nf", "--amplitudes", "1e-2", "--orders", "3",
         "--methods", "lp", "--ntst", "10", "--k-factor", "1e-300"],
    ], ids=["predict-eps-1e300", "converge-amplitude-1e300", "compare-eps-1e300",
            "predict-k-1e-300", "converge-k-factor-1e-300"])
    def test_unusable_predictor_exits_3_naming_its_stage(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("(stage: predictor)\n")

    def test_every_exception_derives_from_bthom_error(self):
        classes = {obj for mod in vars(bthom).values() if isinstance(mod, type(bthom))
                   for obj in vars(mod).values()
                   if isinstance(obj, type) and issubclass(obj, Exception)
                   and obj.__module__.startswith("bthom.")}
        assert len(classes) == 10 and UsageError in classes
        assert all(issubclass(c, BthomError) for c in classes - {UsageError})

    @pytest.mark.parametrize("argv", [
        ["analyze", "--nonsense"],
        ["predict", "--model", "bt_nf", "--order", "5"],
        ["predict", "--model", "bt_nf", "--eps", "-1"],
        ["predict", "--model", "bt_nf", "--k", "5"],
        ["analyze", "--model", "bt_nf", "--x0", "0,0"],
        ["converge", "--model", "bt_nf", "--methods", "foo"],
        ["analyze", "--model", "bt_nf", "--coeff", "a"],
        ["analyze", "--model", "{user_model}"],
        ["analyze", "--model", "{tmp}/nosuchfile.ode"],
        ["analyze", "--model", "bt_nf", "--x0", "abc,0", "--alpha0", "0,0"],
        ["analyze", "--model", "bt_nf", "--coeff", "a=abc"],
        ["analyze", "--model", "bt_nf", "--coeff", "zz=1"],
        ["analyze", "--model", "hh", "--coeff", "a=1"],
        ["converge", "--model", "bt_nf", "--orders", "5", "--amplitudes", "1e-2",
         "--ntst", "10"],
        ["converge", "--model", "bt_nf", "--amplitudes", "1:2"],
        ["converge", "--model", "bt_nf", "--orders", "1", "--amplitudes", "1e-2",
         "--ntst", "10", "--k-factor", "5"],
        ["predict", "--model", "bt_nf", "--ntst", "1"],
        ["lpseries", "--order", "0"],
        ["predict", "--model", "bt_nf", "--variant", "smooth", "--phase", "l2"],
        ["predict", "--model", "bt_nf", "--method", "rp", "--phase", "altgamma"],
        ["predict", "--model", "bt_nf", "--method", "lp", "--phase", "l2"],
        ["analyze", "--model", "{user_model}", "--x0", "0,0", "--alpha0", "0,0",
         "--coeff", "a=5"],
        ["analyze", "--model", "bt_nf", "--out", "{tmp}/missing/a.json"],
        ["predict", "--model", "bt_nf", "--ntst", "10", "--out", "{tmp}/missing/p.json"],
        ["lpseries", "--order", "3", "--out", "{tmp}/missing/lp.csv"],
        ["converge", "--model", "bt_nf", "--orders", "0", "--amplitudes", "1e-2",
         "--ntst", "10", "--out", "{tmp}/missing/c.csv"],
        ["compare", "--model", "bt_nf", "--eps-range", "0.1", "--out", "{tmp}/missing/k.csv"],
        ["converge", "--model", "bt_nf", "--amplitudes", "1e-3:1e-1:x"],
        ["converge", "--model", "bt_nf", "--amplitudes", "0:1e-1:3"],
        ["predict", "--model", "bt_nf", "--eps", "nan", "--ntst", "10"],
        ["predict", "--model", "bt_nf", "--eps", "inf", "--ntst", "10"],
        ["converge", "--model", "bt_nf", "--amplitudes", "nan", "--orders", "3",
         "--methods", "lp", "--ntst", "10"],
        ["converge", "--model", "bt_nf", "--amplitudes", "inf", "--orders", "3",
         "--methods", "lp", "--ntst", "10"],
        ["compare", "--model", "bt_nf", "--eps-range", "nan,0.1"],
        ["analyze", "--model", "bt_nf", "--x0", "nan,0", "--alpha0", "0,0"],
        ["analyze", "--model", "bt_nf", "--coeff", "a=nan"],
        ["predict", "--model", "bt_nf", "--k", "nan", "--ntst", "10"],
        ["converge", "--model", "bt_nf", "--orders", "3", "--amplitudes", "1e-2",
         "--methods", "lp", "--ntst", "10", "--k-factor", "nan"],
    ], ids=["unknown-option", "order-5", "negative-eps", "k-above-amplitude",
            "x0-without-alpha0", "unknown-method", "coeff-without-value",
            "user-model-without-point", "missing-model-file", "non-numeric-x0",
            "non-numeric-coeff", "unknown-coeff", "coeff-for-hh", "orders-5",
            "two-part-amplitudes", "k-factor-above-one", "ntst-1", "lpseries-order-0",
            "smooth-l2", "rp-altgamma", "lp-l2", "coeff-for-model-file",
            "analyze-out-in-missing-dir", "predict-out-in-missing-dir",
            "lpseries-out-in-missing-dir", "converge-out-in-missing-dir",
            "compare-out-in-missing-dir", "non-numeric-amplitude-count",
            "amplitude-range-from-zero", "eps-nan", "eps-inf", "amplitude-nan",
            "amplitude-inf", "eps-range-nan", "x0-nan", "coeff-nan", "k-nan",
            "k-factor-nan"])
    def test_usage_error_exits_2(self, argv, capsys, tmp_path):
        model = tmp_path / "m.txt"
        model.write_text("dim 2\npar p1 p2\nx1' = x2\nx2' = p1 + p2*x2 + x1^2 + x1*x2\n")
        with pytest.raises(SystemExit) as exc:
            main([arg.format(user_model=model, tmp=tmp_path) for arg in argv])
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert ": error: " in last
        if {"nan", "inf"} & {v for arg in argv for v in re.split("[=,]", arg)}:
            assert re.search(r"bad --[a-z0-9-]+ value '(nan|inf)'$", last)


class TestPredict:
    def test_json_fields_and_determinism(self, capsys, tmp_path):
        out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
        args = ["predict", "--model", "bt_nf", "--eps", "0.1",
                "--ntst", "20", "--ncol", "4"]
        assert run(args + ["--out", str(out1)], capsys)[0] == 0
        assert run(args + ["--out", str(out2)], capsys)[0] == 0
        assert out1.read_text() == out2.read_text()
        data = json.loads(out1.read_text())
        for key in ("method", "variant", "eps", "alpha", "T", "ntst", "ncol",
                    "mesh", "orbit", "s0", "eps0", "eps1", "tangent_sign"):
            assert key in data
        assert len(data["orbit"]) == 20 * 4 + 1
        assert len(data["orbit"][0]) == 2


    def test_default_end_distance_above_a0_names_the_default(self, capsys):
        argv = ["predict", "--model", "bt_nf", "--eps", "1e-5", "--ntst", "10"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert "default end distance k = eps*1e-4" in err and "--k" in err
        assert "k = 1e-09" in err and "A0 = 6e-10" in err
        assert run(argv + ["--k", "1e-12"], capsys)[0] == 0

    @pytest.mark.parametrize("argv", [["--variant", "hyper", "--phase", "altgamma"],
                                      ["--method", "rp", "--phase", "altgamma"],
                                      ["--method", "lp", "--phase", "l2"]])
    def test_missing_phase_names_phase(self, argv, capsys):
        with pytest.raises(SystemExit):
            main(["predict", "--model", "bt_nf"] + argv)
        assert "error: --phase: " in capsys.readouterr().err


class TestConverge:
    def test_small_study_csv(self, capsys, tmp_path):
        out = tmp_path / "conv.csv"
        code, stdout, _ = run(["converge", "--model", "bt_nf", "--methods", "lp",
                               "--orders", "0,3", "--amplitudes", "1e-2,1e-1",
                               "--ntst", "20", "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("model,method,variant,order")
        assert len(lines) == 5
        rows = [ln.split(",") for ln in lines[1:]]
        assert all(r[-1] == "1" for r in rows)  # all converged

    @pytest.mark.parametrize("name", ["rp", "rp-l2", "lp", "lp-alt", "lp-xid"])
    def test_method_name_round_trips(self, name, capsys):
        code, stdout, _ = run(["converge", "--model", "bt_nf", "--methods", name,
                               "--orders", "3", "--amplitudes", "1e-2", "--ntst", "20"], capsys)
        assert code == 0
        header, row = stdout.splitlines()
        assert row.split(",")[header.split(",").index("method")] == name

    @pytest.mark.parametrize("spec, want", [("1e-3:1e-1:3", [1e-3, 1e-2, 1e-1]),
                                            ("1e-2:1e-2:1", [1e-2])])
    def test_amplitude_range_is_log_spaced(self, spec, want):
        assert np.allclose(_parse_amplitudes("--amplitudes", spec), want, rtol=1e-14, atol=0)


class TestCompare:
    def test_wrong_k_negative_control(self, capsys, tmp_path):
        out = tmp_path / "cmp.csv"
        code, *_ = run(["compare", "--model", "bt_nf", "--coeff", "c1=0.7",
                        "--eps-range", "0.1,0.2", "--out", str(out)], capsys)
        assert code == 0
        rows = {}
        for line in out.read_text().splitlines()[1:]:
            var, order, eps, a1, a2 = line.split(",")
            rows[(var, int(order), float(eps))] = (float(a1), float(a2))
        good = rows[("orbital", 3, 0.2)]
        ctrl = rows[("orbital-wrongK", 3, 0.2)]
        # dropping K11/K03 loses the c1 alpha2^3 pull-back in alpha1
        beta2 = 10 / 7 * 0.04 + 288 / 2401 * 0.2 ** 4
        assert good[0] == pytest.approx(-4 * 0.2 ** 4 - 0.7 * beta2 ** 3, abs=1e-10)
        assert ctrl[0] == pytest.approx(-4 * 0.2 ** 4, abs=1e-8)
        assert good[1] == pytest.approx(ctrl[1], abs=1e-10)

    def test_variants_coincide_for_quadratic_normal_form(self, capsys, tmp_path):
        out = tmp_path / "cmp2.csv"
        code, *_ = run(["compare", "--model", "bt_nf",
                        "--eps-range", "0.1,0.2", "--out", str(out)], capsys)
        assert code == 0
        rows = {}
        for line in out.read_text().splitlines()[1:]:
            var, order, eps, a1, a2 = line.split(",")
            rows.setdefault((int(order), float(eps)), {})[var] = (float(a1), float(a2))
        for cell in rows.values():
            base = cell["orbital"]
            for var in ("smooth", "hyper", "orbital-wrongK"):
                assert np.allclose(cell[var], base, atol=1e-8)
