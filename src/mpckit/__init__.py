"""mpckit: linear and nonlinear model predictive control with in-tree solvers."""

__version__ = "0.1.0"

from .condense import (PredictionMatrices, StackedConstraints, StackedWeights,
                       assemble_condensed_qp, assemble_sparse_qp,
                       build_prediction, build_weights, stack_constraints)
from .controller import (MpcConfig, MpcStepResult, Trajectory, lmpc_step,
                         nmpc_step, run_closed_loop, tracking_transform)
from .exceptions import (ConfigError, InfeasibleStepError, InvalidHorizonError,
                         InvalidWeightError, MpcError, NonFiniteError,
                         ReferenceInfeasibleError, ShapeError,
                         SingularMatrixError, SteadyStateError)
from .feasibility import (FeasibilityReport, LyapunovReport,
                          is_control_sequence_feasible, is_state_feasible,
                          lyapunov_monitor, persistent_feasibility_check)
from .model import (LtiModel, NonlinearModel, PendulumParams, Polytope,
                    box_polytope, empty_polytope, lti_as_nonlinear, lti_step,
                    pendulum_model, pendulum_step, polytope_contains,
                    steady_state_input_lti, steady_state_input_nonlinear)
from .nlp_solver import (NlpProblem, NlpSolution, NlpStatus, build_feq,
                         build_feq_jacobian, solve_nlp)
from .numerics import finite_diff_jacobian, pseudo_inverse_apply
from .qp_solver import (QpProblem, QpSolution, QpStatus, SolverSettings,
                        kkt_residuals, solve_qp)
