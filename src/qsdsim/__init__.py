"""Stochastic state-diffusion simulator for a damped harmonic
oscillator coupled to a finite-temperature bath, with a deterministic
density-matrix reference, ensemble statistics, localization
diagnostics, and phase-space history (decoherence functional) tools.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DimensionError, FitError, ParameterError,
                     QuadratureError, SimulationError, StepSizeWarning,
                     TrajectoryError, TruncationError)
from .model import (ModelParams, OperatorSet, build_operators, cat_state,
                    coherent_state, fock_state, normalize, tail_mass,
                    temperature_for_nbar)
from .observables import ExponentialFit, fit_exponential_decay
from .qsd import (IntegratorConfig, TrajectoryRecord, run_trajectory,
                  trajectory_seed)
from .oracle import (LindbladPropagatorConfig, OracleRun, propagate,
                     propagate_matrices)
from .ensemble import (STAT_FIELDS, EnsembleConfig, EnsembleStats,
                       InitialStateSpec, run_ensemble, trace_distance)
from .histories import (DecoherenceMatrix, HistorySpec, IntervalScan,
                        PhaseCell, cat_interval_scan, cell_projector,
                        classical_peaking_report, decoherence_functional)
