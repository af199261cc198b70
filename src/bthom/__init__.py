"""Third-order homoclinic predictors near Bogdanov-Takens points.

Pipeline:  parse an ODE model with two active parameters, build the
Taylor-jet multilinear oracle at the BT equilibrium, compute the
parameter-dependent center-manifold transformation for one of three
normal-form variants, lift the planar homoclinic asymptotics (regular
perturbation or polynomial Lindstedt-Poincare) to phase space, and correct
the resulting predictor by Moore-Penrose Newton against the homoclinic
defining system.
"""

from .asymptotics import (In_closed, LpSeries, PhaseChoice, lp_solve_quadratic,
                          planar_pass, smooth_tau, u0, xi_of_s)
from .corrector import (ConvergenceRecord, HomBvp, build_bvp, bvp_jacobian,
                        bvp_residual, convergence_study, correct_predictor,
                        correct_with_retries, newton_correct)
from .errors import BthomError
from .linalg import BTData, NotBTError, bt_eigenstructure
from .model import (ModelError, MultilinearOracle, OdeModel, ParseError,
                    build_oracle, builtin_model, eval_rhs, parse_model)
from .nfcoeffs import (CmExpansion, NonGenericBTError, Variant, analyze_bt,
                       critical_coefficients, homological_residual)
from .predictor import (HomPredictor, Mesh, Method, NoConvergenceError,
                        amplitude_to_eps, invert_time, lift_orbit, lift_parameters,
                        make_mesh, saddle_point, sample_predictor,
                        tangent_orientation, time_reparam, ttol_to_T)

__version__ = "0.1.0"
