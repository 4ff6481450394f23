"""tactica: interactive games, verbalization, tactics and representative dynamics.

Simulation of differential interactive systems with hidden feedback
parameters, window-based verbalization with identifiable recurrences, comment
recursions that every tactics mode compiles into one synthesis rule, with a
tactical-extension check, a-posteriori prediction and filtering analysis, and
constrained matrix dynamics over finitely presented algebra classes, all
driven by deterministic scenarios.
"""

from .algebra import (AlgebraClassRegistry, AlgebraPresentation, MatrixTuple,
                      WeylSymbol, WeylTerm, commutative_presentation, default_registry,
                      equivalence_partition, heisenberg_presentation, relation_residual,
                      weyl_eval)
from .games import (Coalition, ConfigurationError, DivergenceError, EpsilonProcess,
                    FeedbackCoupling, InteractiveSystem, InvariantConstraint, Player,
                    PureControlPolicy, SimulationError, SlowControl, StateTrajectory,
                    associated_ordinary_game, check_indeterminate_invariants,
                    coalition_simulate, replay_with_recorded_eps, simulate)
from .prediction import (DataError, FeedbackEstimate, FilterSpec, Prediction,
                         PredictionDataset, PrognosisReport, apply_filter,
                         fit_feedback_family, interactivize_by_prediction, predict,
                         rolling_predictions, strategic_pipeline, unravel_by_filtering)
from .repdyn import (ClassDynamics, InsolvableSignal, InverseConstruction, RepDynResult,
                     RepDynSpec, StrandedClassError, TacticalRepDyn, TransitionEvent,
                     check_start, integrate_repdyn, integrate_scalar_reference,
                     project_to_variety, run_tactical_repdyn, solve_inverse_problem, tuple_map)
from .scenario import Scenario, ScenarioError, load_scenario
from .tactics import (CommentState, CommentedGame, CommentedRun, DialecticalObject,
                      SynthesisRule, TransitionRule, commented_as_synthesis,
                      interaction_as_synthesis, is_tactical_extension, probe_grid,
                      run_synthesized)
from .verbalization import (Cell, CellComplex, CellCondition, DialogueResult,
                            DialogueSpec, DomainError, IntentionField, RecurrenceMap,
                            WindowFunctional, WindowRecord, detect_partition,
                            fit_recurrence, simulate_dialogue, verify_recurrence,
                            windows_from_trajectory)

__version__ = "0.1.0"
