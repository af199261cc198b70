"""Properties over random bt_nf normal-form coefficients with a*b != 0."""

import contextlib
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bthom.cli import main
from bthom.corrector import correct_with_retries, newton_correct
from bthom.model import builtin_model
from bthom.nfcoeffs import analyze_bt
from bthom.predictor import Method, make_mesh

nonzero = st.floats(0.3, 2.0).flatmap(lambda v: st.sampled_from([v, -v]))
small = st.floats(-0.5, 0.5)
coefficients = st.fixed_dictionaries({"a": nonzero, "b": nonzero, "a1": small,
                                      "b1": small, "d": small, "e": small})


@settings(max_examples=20, deadline=None)
@given(coefficients)
def test_corrected_orbit_is_a_newton_fixed_point(coeffs):
    model = builtin_model("bt_nf", **coeffs)
    _, ex = analyze_bt(model, [0.0, 0.0], [0.0, 0.0], "orbital")
    _, bvp, z, _ = correct_with_retries(model, ex, Method("lp"), make_mesh(20, 4))
    z2, iters = newton_correct(bvp, z)
    assert iters == 0
    assert np.array_equal(z2, z)


def _analyze_json(coeffs) -> str:
    argv = ["analyze", "--model", "bt_nf", "--variant", "all", "--coeffs"]
    for key, value in coeffs.items():
        argv += ["--coeff", f"{key}={value!r}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@settings(max_examples=20, deadline=None)
@given(coefficients)
def test_analyze_json_is_deterministic(coeffs):
    assert _analyze_json(coeffs) == _analyze_json(coeffs)
