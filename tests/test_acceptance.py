"""Acceptance gate: one test per criterion (split into lettered clauses where
a criterion bundles several checks). Every test prints a PASS/FAIL line, so
`pytest tests/test_acceptance.py -v -s` doubles as the acceptance report.

Criteria 5 and 6 quantify "for all practical purposes" irreversibility, and
their clauses assert the closed forms that the model obeys exactly:

* 5a/5b: averaging e^{i(V_a - V_b) t} over independent Gaussian level shifts
  damps every off-diagonal level pair by exp(-(sigma t)^2/2), but the diagonal
  pairs (a = b) average to exactly 1, so the averaged Q-function levels off on
  a dephased plateau (`averaged_q_formula`). 5b compares the Monte-Carlo node
  means with that form; 5a bounds the mean overlap by the Jensen bound built
  from it. The Gaussian exp(-(sigma t)^2/4) column of `echo_experiment` is
  only the coherence-damping reference curve and is reported, not asserted.
* 6b: for a mixing map the return probability tends to the cell's measure
  mu(A) = |A| / (2 pi)^2 ~ 6.3e-5, so the decay term 10 e^{-lambda t} is
  asserted above that floor, with a 3-sigma allowance for the Monte-Carlo
  count at the floor.
"""

import time
from math import pi

import numpy as np
import pytest

from fapplab.bell import (ChshSettings, build_bell_state, chsh_value,
                          correlation, lhv_bound)
from fapplab.cli import main as cli_main
from fapplab.echo import (GaussianPerturbation, SpectralHamiltonian, averaged_q_formula,
                          echo_experiment)
from fapplab.friend import (LabSpace, branch_states, interference_measurement,
                            message_purity, observer_coupling, prepare_initial,
                            stern_gerlach, write_message)
from fapplab.qcore import OperatorMatrix, StateVector
from fapplab.reversal import (TWO_PI, CellRegion, PhasePoint, ReversalConfig,
                              ReversibleMap, reversal_probabilities)
from fapplab.spincoarse import (SolidAngle, SphereGrid, SpinSystem, bhattacharyya,
                                coherent_kernel, coherent_state, q_function_pure)

from oracles import combined_evolution, draw_perturbation

SQRT2 = np.sqrt(2.0)
CLASSICAL_SEED = 20250809
ECHO_H0_SEED = 101
ECHO_PERT_SEED = 202


def report(name: str, ok: bool, detail: str = "") -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


# ---------------------------------------------------------------- criterion 1

def test_01_chsh_reproduction():
    start = time.perf_counter()
    state = build_bell_state()
    settings = ChshSettings.default()
    chsh = chsh_value(state, settings)
    classical = lhv_bound()
    elapsed = time.perf_counter() - start
    ok = (abs(chsh - 2 * SQRT2) < 1e-9) and (classical == 2.0) and (elapsed < 1.0)
    assert report("criterion 1 (chsh 2*sqrt2, deterministic ceiling 2)", ok,
                  f"chsh={chsh:.12f} lhv={classical} runtime={elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 2

def test_02_correlation_table_against_dense_oracle():
    state = build_bell_state()
    settings = ChshSettings.default()
    expected = {"a1b1": -1 / SQRT2, "a1b2": -1 / SQRT2,
                "a2b1": -1 / SQRT2, "a2b2": +1 / SQRT2}
    ok = True
    details = []
    for name, obs_a, obs_b in settings.pairs():
        fast = correlation(state, obs_a, obs_b)
        dense = np.kron(obs_a.matrix.entries, obs_b.matrix.entries)
        oracle = float(np.real(state.amplitudes.conj() @ dense @ state.amplitudes))
        ok &= abs(fast - expected[name]) < 1e-9 and abs(oracle - expected[name]) < 1e-9
        details.append(f"{name}={fast:+.9f}")
    assert report("criterion 2 (correlation table +-1/sqrt2, dense oracle)", ok,
                  " ".join(details))


# ---------------------------------------------------------------- criterion 3

def test_03_laboratory_pipeline():
    start = time.perf_counter()
    space = LabSpace(observer_dim=2)
    state = observer_coupling(stern_gerlach(prepare_initial(space)))
    p_pre = interference_measurement(state)
    written = write_message(state)
    p_post = interference_measurement(written)
    purity = message_purity(written)

    up, down = branch_states(space)
    mixed = 0.5 * (np.outer(up.amplitudes, up.amplitudes.conj())
                   + np.outer(down.amplitudes, down.amplitudes.conj()))
    p_mix = interference_measurement(OperatorMatrix(mixed, kind="hermitian"), space)
    elapsed = time.perf_counter() - start

    ok = (abs(p_pre[0] - 1.0) < 1e-12
          and abs(purity - 1.0) < 1e-12
          and all(abs(a - b) < 1e-12 for a, b in zip(p_pre, p_post))
          and abs(p_mix[0] - 0.5) < 1e-12 and abs(p_mix[1] - 0.5) < 1e-12
          and elapsed < 1.0)
    assert report("criterion 3 (sealed-laboratory pipeline)", ok,
                  f"p_plus={p_pre[0]:.15f} purity={purity:.15f} "
                  f"mixture=({p_mix[0]:.3f},{p_mix[1]:.3f}) runtime={elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 4

@pytest.mark.parametrize("j", [10, 50])
def test_04_q_function_suite(j):
    start = time.perf_counter()
    sys_ = SpinSystem(j)
    grid = SphereGrid(2 * j + 2, 2 * j + 2)
    kernel = coherent_kernel(sys_, grid)
    rng = np.random.default_rng(404 + j)

    state = coherent_state(sys_, SolidAngle(pi / 3, 0.0))
    norm_ok = abs(q_function_pure(state, sys_, grid).integral() - 1.0) < 1e-8

    resolution = (2 * j + 1) / (4 * pi) * (kernel.T @ (grid.weights[:, None]
                                                       * kernel.conj()))
    complete_ok = np.max(np.abs(resolution - np.eye(sys_.dim))) < 1e-10

    dominate_ok = True
    for _ in range(100):
        v1 = rng.standard_normal(sys_.dim) + 1j * rng.standard_normal(sys_.dim)
        v2 = rng.standard_normal(sys_.dim) + 1j * rng.standard_normal(sys_.dim)
        s1 = StateVector(v1, normalize=True)
        s2 = StateVector(v2, normalize=True)
        macro = bhattacharyya(q_function_pure(s1, sys_, grid),
                              q_function_pure(s2, sys_, grid))
        dominate_ok &= macro >= abs(s1.overlap(s2)) - 1e-10

    top = StateVector.basis(sys_.dim, sys_.dim - 1)
    q_top = q_function_pure(top, sys_, grid)
    law = (2 * j + 1) / (4 * pi) * np.cos(grid.thetas / 2) ** (4 * j)
    pointwise_ok = np.max(np.abs(q_top.values - law)) < 1e-8

    elapsed = time.perf_counter() - start
    ok = norm_ok and complete_ok and dominate_ok and pointwise_ok and elapsed < 30.0
    assert report(f"criterion 4 (q-function suite, j={j})", ok,
                  f"norm={norm_ok} completeness={complete_ok} "
                  f"overlap_inequality={dominate_ok} pointwise={pointwise_ok} "
                  f"runtime={elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 5

@pytest.fixture(scope="module")
def echo_acceptance_run():
    start = time.perf_counter()
    sys_ = SpinSystem(10)
    grid = SphereGrid(2 * 10 + 2, 2 * 10 + 2)
    kernel = coherent_kernel(sys_, grid)
    h0 = SpectralHamiltonian.random_dicke_diagonal(sys_, seed=ECHO_H0_SEED)
    sigma = 0.05 * h0.mean_spacing
    pert = GaussianPerturbation(sigma=sigma, means=np.zeros(sys_.dim),
                                seed=ECHO_PERT_SEED, h0=h0)
    psi = coherent_state(sys_, SolidAngle(pi / 3, 0.0))
    times = np.array([0.0, 1 / sigma, 2 / sigma, 4 / sigma])
    ensemble = 500
    curve = echo_experiment(psi, h0, pert, times, ensemble, sys_, grid)

    norm = (2 * sys_.j + 1) / (4 * pi)
    q_members = np.empty((ensemble, times.size, grid.size))
    for member in range(ensemble):
        v = draw_perturbation(pert, member)
        for it, t in enumerate(times):
            out = combined_evolution(psi, h0, v, float(t))
            q_members[member, it] = norm * np.abs(kernel.conj() @ out.amplitudes) ** 2
    elapsed = time.perf_counter() - start
    return dict(sys=sys_, grid=grid, kernel=kernel, h0=h0, sigma=sigma, pert=pert,
                psi=psi, times=times, curve=curve, q_members=q_members,
                elapsed=elapsed)


def test_05a_echo_decay_bound(echo_acceptance_run):
    """mean_overlap(t) <= sum w sqrt(Q_0 <Q(t)>) + 3 se at t in {0, 1/s, 2/s, 4/s}.

    The Bhattacharyya overlap is concave in the second Q-function, so by
    Jensen's inequality its ensemble mean lies below the overlap of Q_0 with
    the exact averaged Q-function of `averaged_q_formula`; that limit levels
    off on the dephased plateau with the true curve. The Gaussian reference
    curve exp(-(sigma t)^2/4) is printed alongside.
    """
    run = echo_acceptance_run
    curve = run["curve"]
    sys_, grid = run["sys"], run["grid"]
    q0 = q_function_pure(run["psi"], sys_, grid).values
    failures = []
    details = []
    for i, t in enumerate(curve.times):
        qbar = averaged_q_formula(run["psi"], run["h0"], run["pert"], float(t),
                                  sys_, grid)
        jensen = float(np.sum(grid.weights * np.sqrt(q0 * qbar)))
        limit = jensen + 3 * curve.std_error[i]
        good = curve.mean_overlap[i] <= limit + 1e-12
        details.append(f"t={t:.1f}: overlap={curve.mean_overlap[i]:.4f} "
                       f"jensen={jensen:.4f} gaussian={curve.analytic_bound[i]:.4f} "
                       f"{'ok' if good else 'VIOLATED'}")
        if not good:
            failures.append(float(t))
    ok = not failures and run["elapsed"] < 120.0
    report("criterion 5a (ensemble overlap under exact jensen bound)", ok,
           "; ".join(details) + f" runtime={run['elapsed']:.1f}s")
    assert ok, ("ensemble-averaged overlap exceeds the Jensen bound of the exact "
                f"averaged Q-function at t={failures}")


def test_05b_nodewise_averaged_q(echo_acceptance_run):
    """<Q(Omega,t)> vs the exact dephased average of `averaged_q_formula`
    within 5 standard errors per node.

    The report also gives the share of nodes at which the all-pairs-damped
    form |<Omega|phi(t)>|^2 e^{-(s t)^2/2} would fit; it is a record only, as
    that form drops the undamped diagonal level pairs.
    """
    run = echo_acceptance_run
    kernel, psi, sigma = run["kernel"], run["psi"], run["sigma"]
    norm = (2 * run["sys"].j + 1) / (4 * pi)
    base = norm * np.abs(kernel.conj() @ psi.amplitudes) ** 2  # W = 0: phi(t) = psi
    n = run["q_members"].shape[0]
    failures = []
    details = []
    for i, t in enumerate(run["times"]):
        mc_mean = run["q_members"][:, i, :].mean(axis=0)
        mc_se = run["q_members"][:, i, :].std(axis=0, ddof=1) / np.sqrt(n)
        exact = averaged_q_formula(psi, run["h0"], run["pert"], float(t),
                                   run["sys"], run["grid"])
        gap = np.abs(mc_mean - exact)
        allowed = 5 * mc_se + 1e-12
        bad = gap > allowed
        worst = float(np.max(gap / allowed))
        damped = base * np.exp(-(sigma * t) ** 2 / 2)
        damped_fit = float(np.mean(np.abs(mc_mean - damped) <= allowed))
        details.append(f"t={t:.1f}: {100 * (1 - np.mean(bad)):.1f}% nodes ok "
                       f"(worst node at {worst:.2f} of the limit; fully damped fits "
                       f"{100 * damped_fit:.1f}%)")
        if bad.any():
            failures.append(float(t))
    ok = not failures
    report("criterion 5b (nodewise averaged q vs exact dephased form)", ok,
           "; ".join(details))
    assert ok, ("node averages depart from the exact averaged Q-function by more "
                f"than 5 se at t={failures}")


# ---------------------------------------------------------------- criterion 6

@pytest.fixture(scope="module")
def classical_runs():
    start = time.perf_counter()
    mapping = ReversibleMap(6.0)
    region = CellRegion(center=PhasePoint(3.0, 2.0), half_width=0.025)
    samples = 100000

    def config(delta, steps):
        return ReversalConfig(map=mapping, perturbed_kick=6.0 + delta, steps=steps,
                              region=region, samples=samples, seed=CLASSICAL_SEED)

    rows = {"exact": {t: config(0.0, t) for t in (5, 10)},
            "perturbed": {t: config(1e-2, t) for t in (5, 10, 15)},
            "decay": {t: config(1e-2, t) for t in range(2, 21, 2)}}
    results = iter(reversal_probabilities(
        [cfg for group in rows.values() for cfg in group.values()]))
    runs = {name: {t: next(results) for t in group} for name, group in rows.items()}
    elapsed = time.perf_counter() - start
    return dict(**runs, region=region, samples=samples, elapsed=elapsed)


def test_06a_unperturbed_reversal_exact(classical_runs):
    """Momentum flip with the true flow returns every sample to the start cell.

    Checked at t = 5 and t = 10; by t ~ 15 the e^{lambda t} amplification of
    double-precision roundoff (~1e-16 e^{17} ~ 1e-9) starts pushing a few
    boundary samples out, so machine arithmetic can no longer realize the
    algebraic identity."""
    exact = classical_runs["exact"]
    ok = all(res.probability == 1.0 for res in exact.values())
    assert report("criterion 6a (unperturbed reversal exact)", ok,
                  " ".join(f"t={t}: p={res.probability}" for t, res in exact.items()))


def test_06b_perturbed_probability_below_bound(classical_runs):
    """delta K = 1e-2 probability below 10 e^{-lambda t} + mu(A) + 3 sd at
    t in {5, 10, 15}.

    For a mixing map the return probability tends to the cell's measure
    mu(A) = |A| / (2 pi)^2 ~ 6.3e-5; e^{-lambda t} is the transient above
    that floor, and sd = sqrt(mu(A)(1 - mu(A))/N) is the sampling spread of
    the count at the floor."""
    mu = classical_runs["region"].area / TWO_PI ** 2
    floor_sd = np.sqrt(mu * (1 - mu) / classical_runs["samples"])
    failures = []
    details = []
    for t, res in classical_runs["perturbed"].items():
        limit = 10 * res.bound + mu + 3 * floor_sd
        good = res.probability <= limit
        details.append(f"t={t}: p={res.probability:.2e} limit={limit:.2e} "
                       f"{'ok' if good else 'VIOLATED'}")
        if not good:
            failures.append(t)
    ok = not failures
    report("criterion 6b (perturbed reversal under lyapunov term x10 + mixing floor)",
           ok, f"mu(A)={mu:.2e}; " + "; ".join(details))
    assert ok, (f"probability exceeds 10 e^(-lambda t) + mu(A) + 3 sd at t={failures}")


def test_06c_monotone_decay(classical_runs):
    decay = classical_runs["decay"]
    ok = True
    prev, prev_se = 1.1, 0.0
    for t in sorted(decay):
        res = decay[t]
        ok &= res.probability <= prev + 2 * max(res.std_error, prev_se)
        prev, prev_se = res.probability, res.std_error
    assert report("criterion 6c (probability non-increasing within 2 se)", ok,
                  " ".join(f"{decay[t].probability:.1e}" for t in sorted(decay)))


def test_06d_lyapunov_estimate(classical_runs):
    res = classical_runs["perturbed"][5]
    lam = res.lyapunov_estimate
    ok = abs(lam - np.log(3.0)) < 0.15
    elapsed = classical_runs["elapsed"]
    ok &= elapsed < 60.0
    assert report("criterion 6d (lyapunov near ln(K/2), runtime)", ok,
                  f"lambda={lam:.4f} ln3={np.log(3.0):.4f} runtime={elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 7

def test_07_byte_identical_reruns(tmp_path):
    configs = {
        "bell": {},
        "friend": {},
        "qfunction": {"j": "5"},
        "classical-reverse": {"t_values": "3,6", "samples": "2000"},
        "echo": {"j": "3", "ensemble": "100", "times": "0,5,10"},
    }
    ok = True
    details = []
    for experiment, params in configs.items():
        cfg_path = tmp_path / f"{experiment}.cfg"
        cfg_path.write_text("".join(f"{k}={v}\n" for k, v in params.items()),
                            encoding="utf-8")
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{experiment}-{tag}.out"
            code = cli_main(["--experiment", experiment, "--config", str(cfg_path),
                             "--seed", "99", "--out", str(out)])
            assert code == 0, f"{experiment} exited {code}"
            outputs.append(out.read_bytes())
        same = outputs[0] == outputs[1]
        ok &= same
        details.append(f"{experiment}={'identical' if same else 'DIFFERS'}")
    assert report("criterion 7 (byte-identical reruns)", ok, " ".join(details))
