"""Dealer-desk risk sharing under price impact: fields, SDE, certificates."""

from .conditions import (ConditionReport, FunctionalSamples, check_all_regimes,
                         check_regime, eval_functionals, smoothness_index)
from .fields import eval_sde_coefficient, solve_conjugate
from .market import (LinearPayoff, MarketModel, NamedPayoff, TablePayoff,
                     check_integrability, market_model)
from .pareto import pareto_point, sharing_derivatives
from .quadrature import QuadratureRule
from .sde import (ConstantFlow, FeedbackFlow, ScheduleFlow, SimulationConfig,
                  initial_state, run_ensemble, simulate_path, static_oracle,
                  step_feedback, strong_error_study)
from .utility import (AgentSet, agent_set, build_from_risk_aversion,
                      check_smoothness, eval_utility, exponential_utility)

__version__ = "0.1.0"
