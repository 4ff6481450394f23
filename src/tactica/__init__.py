"""tactica: interactive games, verbalization, tactics and representative dynamics.

Simulation of differential interactive systems with hidden feedback
parameters, window-based verbalization with identifiable recurrences and
dialogues, comment recursions that every tactics mode compiles into one
synthesis rule, filtering analysis and long-term / short-term prognosis, and
constrained matrix dynamics over finitely presented algebra classes whose runs
are partitioned into class intervals, all driven by deterministic scenarios.
"""

from .algebra import (AlgebraClassRegistry, AlgebraPresentation, WeylSymbol, WeylTerm,
                      commutative_presentation, default_registry, equivalence_partition,
                      heisenberg_presentation, stack_tuple)
from .games import (Coalition, ConfigurationError, DivergenceError, EpsilonProcess,
                    FeedbackCoupling, InteractiveSystem, InvariantConstraint, Player,
                    SimulationError, SlowControl, StateTrajectory,
                    associated_ordinary_game, check_indeterminate_invariants,
                    coalition_simulate, replay_with_recorded_eps, simulate)
from .prediction import (FeedbackEstimate, FilterSpec, PrognosisReport, apply_filter,
                         fit_feedback_family, strategic_pipeline, unravel_by_filtering)
from .repdyn import (ClassDynamics, InsolvableSignal, InverseConstruction, RepDynResult,
                     RepDynSpec, StrandedClassError, TacticalRepDyn, TransitionEvent,
                     check_start, integrate_repdyn, integrate_scalar_reference,
                     project_to_variety, run_tactical_repdyn, solve_inverse_problem, tuple_map)
from .scenario import Scenario, ScenarioError, load_scenario
from .tactics import (CommentState, CommentedGame, CommentedRun, DialecticalObject,
                      SynthesisRule, TransitionRule, commented_as_synthesis,
                      interaction_as_synthesis, run_synthesized)
from .verbalization import (Cell, CellComplex, CellCondition, DialogueResult,
                            DialogueSpec, DomainError, IntentionField, RecurrenceMap,
                            WindowFunctional, WindowRecord, detect_partition,
                            fit_recurrence, simulate_dialogue, verify_recurrence,
                            windows_from_trajectory)

__version__ = "0.1.0"
