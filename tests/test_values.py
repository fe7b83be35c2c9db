"""README's value convention, checked on one instance of every public value
type: attributes can be neither rebound nor deleted, every stored array
is a read-only copy that shares no memory with the array the caller passed,
which stays writable, a NaN or inf in any float field is refused, and `==`
and `hash` work on every value."""

import dataclasses
import inspect

import numpy as np
import pytest

from fapplab import (CellRegion, ChshSettings, EchoCurve, GaussianPerturbation,
                     LabSpace, LabState, MacroObservable, OperatorMatrix, PhasePoint,
                     QFunction, ReversalConfig, ReversalResult, ReversibleMap, SolidAngle,
                     SpectralHamiltonian, SphereGrid, SpinSystem, StateVector,
                     coherent_state, echo_experiment, prepare_initial)

SPIN = SpinSystem(1)


def hamiltonian(eigenvalues=None):
    if eigenvalues is None:
        eigenvalues = np.array([0.0, 1.0, 2.0])
    return SpectralHamiltonian(sys=SPIN, eigenvalues=eigenvalues)


def perturbation(base):
    """A perturbation whose means are a view into the caller's `base`."""
    return GaussianPerturbation(sigma=0.01, means=base[1:], seed=0, h0=hamiltonian())


def echo_result(times):
    grid = SphereGrid.for_spin(SPIN)
    h0 = hamiltonian()
    return echo_experiment(coherent_state(SPIN, SolidAngle(0.9, 0.2)), h0,
                           perturbation(np.zeros(4)), times, 100, SPIN, grid)


def _cases():
    """name -> () -> (instance, the arrays the caller passed to build it)."""
    amps, normalized = np.array([0.6, 0.8j]), np.array([3.0, 4.0j])
    entries = np.eye(2, dtype=complex)
    grid = SphereGrid(4, 5)
    values = np.full(grid.size, 1 / (4 * np.pi))
    evals = np.array([0.0, 1.0, 2.0])
    base = np.zeros(4)
    curve = [np.array([0.0, 1.0]), np.array([1.0, 0.9]), np.zeros(2), np.array([1.0, 0.8])]
    times = np.array([0.0, 0.5, 1.0])
    observable = np.diag([1.0, -1.0] + [0.0] * 14).astype(complex)
    lab = LabSpace(observer_dim=2)
    cell = CellRegion(PhasePoint(1.0, 2.0), 0.3)
    return {
        "StateVector": lambda: (StateVector(amps), [amps]),
        "StateVector-normalized": lambda: (StateVector(normalized, normalize=True),
                                           [normalized]),
        "OperatorMatrix": lambda: (OperatorMatrix(entries, kind="unitary"), [entries]),
        "SpinSystem": lambda: (SPIN, []),
        "SolidAngle": lambda: (SolidAngle(0.5, 1.0), []),
        "SphereGrid": lambda: (SphereGrid(4, 5), []),
        "QFunction": lambda: (QFunction(grid=grid, values=values, j=1.0), [values]),
        "PhasePoint": lambda: (PhasePoint(1.0, 2.0), []),
        "ReversibleMap": lambda: (ReversibleMap(0.5), []),
        "CellRegion": lambda: (cell, []),
        "ReversalConfig": lambda: (ReversalConfig(ReversibleMap(0.5), 0.6, 3, cell, 100, 1), []),
        "ReversalResult": lambda: (ReversalResult(0.5, 0.01, 1.0, 0.3), []),
        "SpectralHamiltonian": lambda: (hamiltonian(evals), [evals]),
        "GaussianPerturbation": lambda: (perturbation(base), [base]),
        "EchoCurve": lambda: (EchoCurve(*curve), curve),
        "echo_experiment": lambda: (echo_result(times), [times]),
        "LabSpace": lambda: (lab, []),
        "LabState": lambda: (LabState(lab, prepare_initial(lab).psi, "initial"), []),
        "MacroObservable": lambda: (MacroObservable(OperatorMatrix(observable, "hermitian")),
                                    [observable]),
        "ChshSettings": lambda: (ChshSettings.default(), []),
    }


CASES = _cases()


def stored(value) -> dict:
    if dataclasses.is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    return {name: getattr(value, name) for name in type(value).__slots__}


def stored_arrays(value):
    for name, attr in stored(value).items():
        for key, item in (attr.items() if isinstance(attr, dict) else [(None, attr)]):
            if isinstance(item, np.ndarray):
                yield f"{name}[{key}]" if key is not None else name, item


@pytest.mark.parametrize("name", CASES)
def test_attributes_cannot_be_rebound_or_deleted(name):
    value, _ = CASES[name]()
    for attr, current in stored(value).items():
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
        with pytest.raises(AttributeError):
            delattr(value, attr)
        assert getattr(value, attr) is current


@pytest.mark.parametrize("name", CASES)
def test_stored_arrays_are_owned_read_only_copies(name):
    value, given = CASES[name]()
    for attr, array in stored_arrays(value):
        assert not array.flags.writeable, attr
        for arg in given:
            assert not np.shares_memory(array, arg), attr
    for arg in given:
        assert arg.flags.writeable


def test_caller_writes_do_not_reach_a_value():
    base = np.zeros(4)
    pert = perturbation(base)
    base[1] = 7.0
    assert pert.means[0] == 0.0


def _with_entry(a, x):
    """A copy of `a` whose last entry is x."""
    a = np.array(a)
    a.flat[-1] = x
    return a


def _nonfinite_builders():
    """"Type.field" -> x -> an instance as in `_cases` but for that one float
    field: a scalar field holds x, an array field holds x as its last entry."""
    grid = SphereGrid(4, 5)
    values = np.full(grid.size, 1 / (4 * np.pi))
    cell = CellRegion(PhasePoint(1.0, 2.0), 0.3)
    curve = [np.array([0.0, 1.0]), np.array([1.0, 0.9]), np.zeros(2), np.array([1.0, 0.8])]
    result = [0.5, 0.01, 1.0, 0.3]

    def curve_with(i):
        return lambda x: EchoCurve(*[_with_entry(a, x) if k == i else a
                                     for k, a in enumerate(curve)])

    def result_with(i):
        return lambda x: ReversalResult(*[x if k == i else v for k, v in enumerate(result)])

    builders = {
        "StateVector.amplitudes": lambda x: StateVector(_with_entry([0.6, 0.8j], x)),
        "OperatorMatrix.entries": lambda x: OperatorMatrix(_with_entry(np.eye(2), x),
                                                           kind="hermitian"),
        "SpinSystem.j": SpinSystem,
        "SolidAngle.theta": lambda x: SolidAngle(x, 1.0),
        "SolidAngle.phi": lambda x: SolidAngle(0.5, x),
        "QFunction.values": lambda x: QFunction(grid=grid, values=_with_entry(values, x), j=1.0),
        "QFunction.j": lambda x: QFunction(grid=grid, values=values, j=x),
        "PhasePoint.q": lambda x: PhasePoint(x, 2.0),
        "PhasePoint.p": lambda x: PhasePoint(1.0, x),
        "ReversibleMap.kick_strength": ReversibleMap,
        "CellRegion.half_width": lambda x: CellRegion(PhasePoint(1.0, 2.0), x),
        "ReversalConfig.perturbed_kick":
            lambda x: ReversalConfig(ReversibleMap(0.5), x, 3, cell, 100, 1),
        "SpectralHamiltonian.eigenvalues": lambda x: hamiltonian(np.array([0.0, 1.0, x])),
        "GaussianPerturbation.sigma":
            lambda x: GaussianPerturbation(sigma=x, means=np.zeros(3), seed=0, h0=hamiltonian()),
        "GaussianPerturbation.means": lambda x: perturbation(np.array([0.0, 0.0, 0.0, x])),
    }
    for i, field in enumerate(dataclasses.fields(EchoCurve)):
        builders[f"EchoCurve.{field.name}"] = curve_with(i)
    for i, field in enumerate(dataclasses.fields(ReversalResult)):
        builders[f"ReversalResult.{field.name}"] = result_with(i)
    return builders


NONFINITE = _nonfinite_builders()


def test_every_float_field_has_a_nonfinite_case():
    """Each constructor argument stored as a float or a float/complex array is
    covered by `NONFINITE`, so a new value type or field cannot skip it."""
    for name, build in CASES.items():
        value, _ = build()
        for param in inspect.signature(type(value)).parameters:
            attr = getattr(value, param, None)
            if isinstance(attr, float) or (isinstance(attr, np.ndarray)
                                           and attr.dtype.kind in "fc"):
                assert f"{type(value).__name__}.{param}" in NONFINITE, name


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", NONFINITE)
def test_nonfinite_float_field_is_refused(field, x):
    with pytest.raises(ValueError):
        NONFINITE[field](x)


@pytest.mark.parametrize("name", CASES)
def test_equality_with_an_equal_twin_is_a_bool_and_hash_works(name):
    # a generated __eq__ over ndarray fields raises on arrays of two or more
    # entries, and a generated __hash__ raises on any ndarray field; the
    # array-bearing types compare by identity, as StateVector does
    value, _ = CASES[name]()
    twin, _ = CASES[name]()
    assert isinstance(value == twin, bool)
    assert value == value
    assert isinstance(hash(value), int)
    assert isinstance(hash(twin), int)
