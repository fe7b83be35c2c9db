"""fapplab: coarse-grained spin states, practical irreversibility of
measurement (classical and quantum), and Bell tests on observer-level records.
"""

__version__ = "0.1.0"

from .errors import ConfigError, GridOrderError, StageError, ToleranceError
from .qcore import (OperatorMatrix, ProductSpace, StateVector, evolve,
                    expectation, partial_trace, tensor, tensor_all)
from .spincoarse import (CapRegion, QFunction, SolidAngle, SphereGrid, SpinSystem,
                         bhattacharyya, coherent_kernel, coherent_state,
                         povm_element, q_function, q_function_pure)
from .reversal import (CellRegion, PhasePoint, ReversalConfig, ReversalResult,
                       ReversibleMap, bound, involution, lyapunov, lyapunov_rows,
                       reversal_probabilities, reversal_probability, step)
from .echo import (EchoCurve, GaussianPerturbation, SpectralHamiltonian,
                   averaged_q_formula, combined_evolution, draw_perturbation,
                   echo_experiment, reversibility_measure)
from .friend import (LabSpace, LabState, interference_measurement,
                     observer_coupling, prepare_initial,
                     qutrit_observer_measurement, run_pipeline, stern_gerlach,
                     write_message)
from .bell import (ChshSettings, LaboratoryBasis, MacroObservable,
                   build_bell_state, chsh_summary, chsh_value, chsh_value_sampled,
                   correlation, correlation_sampled, facts_contradiction_report,
                   lhv_bound)
