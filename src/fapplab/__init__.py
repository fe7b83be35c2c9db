"""fapplab: coarse-grained spin states, practical irreversibility of
measurement (classical and quantum), and Bell tests on observer-level records.
"""

__version__ = "0.1.0"

from .errors import ConfigError, GridOrderError, StageError, ToleranceError
from .qcore import OperatorMatrix, StateVector, partial_trace, tensor_all
from .spincoarse import (QFunction, SolidAngle, SphereGrid, SpinSystem, bhattacharyya,
                         coherent_kernel, coherent_state, q_function, q_function_pure)
from .reversal import (CellRegion, PhasePoint, ReversalConfig, ReversalResult,
                       ReversibleMap, bound, lyapunov, reversal_probabilities,
                       reversal_probability)
from .echo import (EchoCurve, GaussianPerturbation, SpectralHamiltonian,
                   averaged_q_formula, echo_experiment)
from .friend import (LabSpace, LabState, interference_measurement,
                     observer_coupling, prepare_initial, run_pipeline, stern_gerlach,
                     write_message)
from .bell import (ChshSettings, MacroObservable,
                   build_bell_state, chsh_summary, chsh_value,
                   correlation, correlation_sampled, lhv_bound)
