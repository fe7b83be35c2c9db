import os
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fapplab
from fapplab import (bell as bell_mod, echo as echo_mod, friend as friend_mod, qcore,
                     reversal as rev_mod, spincoarse as sc)
from fapplab.cli import EXPERIMENTS, PARAM_TABLE, main, parse_config_file, resolve_config
from fapplab.errors import ConfigError

from oracles import chsh_value_sampled


def run_cli(*args):
    return main(list(args))


class NoDraws(np.random.Generator):
    """A generator that fails the test if a Bell shot is drawn."""

    def random(self, *args, **kwargs):
        raise AssertionError("a shot was drawn before the shot count was checked")


def no_draws_rng(seed=None):
    return NoDraws(np.random.PCG64(seed))


def write_config(path, **pairs):
    lines = ["# test configuration"]
    lines += [f"{key}={value}" for key, value in pairs.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# hello\n\nkick=6.0\n", encoding="utf-8")
        assert parse_config_file(str(cfg)) == {"kick": "6.0"}

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("kick 6.0\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            parse_config_file(str(cfg))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config("bell", {"bogus": "1"})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config("echo", {"ensemble": "many"})

    def test_range_checks(self, tmp_path, capsys):
        # the library constructors own these checks; main maps them to exit 2
        for experiment, pair in (("echo", {"ensemble": "10"}),
                                 ("qfunction", {"j": "0.3"}),
                                 ("classical-reverse", {"samples": "10"})):
            cfg = write_config(tmp_path / "c.cfg", experiment=experiment, **pair)
            assert run_cli("--config", cfg, "--out", str(tmp_path / "o.csv")) == 2
            assert "config error" in capsys.readouterr().err

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            resolve_config("teleportation", {})

    def test_defaults_filled(self):
        cfg = resolve_config("bell", {})
        assert cfg == {"sampled": False, "shots": 10000}


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", experiment="bell", bogus="1")
        assert run_cli("--config", cfg, "--out", str(tmp_path / "o.csv")) == 2
        assert "config error" in capsys.readouterr().err

    def test_config_not_utf8_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"experiment=friend\n\xff\xfe=1\n")
        out = tmp_path / "o.txt"
        assert run_cli("--config", str(cfg), "--out", str(out)) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_experiment_is_2(self, tmp_path):
        assert run_cli("--out", str(tmp_path / "o.csv")) == 2

    def test_numerical_failure_is_3(self, tmp_path, capsys):
        # a grid far below the spin band limit trips the tolerance machinery
        cfg = write_config(tmp_path / "c.cfg", experiment="qfunction", j="10",
                           grid_nodes="4")
        out = tmp_path / "o.csv"
        assert run_cli("--config", cfg, "--out", str(out)) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, key, value", [
        ("echo", "times", "5,0"),
        ("classical-reverse", "cell_width", "7"),
        ("echo", "sigma_scale", "0.5"),
        ("qfunction", "j", "600"),
        ("echo", "theta0", "4"),
        ("echo", "phi0", "7"),
        ("qfunction", "j", "nan"),
        ("qfunction", "j", "inf"),
        ("classical-reverse", "kick", "nan"),
        ("classical-reverse", "kick", "1e200"),
        ("classical-reverse", "delta_kick", "1e200"),
        ("echo", "times", "nan"),
        ("echo", "sigma_scale", "nan"),
        ("qfunction", "j", "1000000"),
        ("echo", "j", "1000000"),
        ("qfunction", "grid_nodes", "1003"),
        ("qfunction", "grid_nodes", "3000000"),
        ("echo", "ensemble", "1000000000"),
        ("bell", "shots", "100000000000"),
        ("classical-reverse", "samples", "10000000000"),
        ("classical-reverse", "t_values", "1000000000"),
    ])
    def test_invalid_value_is_2(self, tmp_path, capsys, monkeypatch, experiment, key, value):
        def must_not_run(*args, **kwargs):
            raise AssertionError("samples were drawn before the sample count was checked")

        monkeypatch.setattr(rev_mod.CellRegion, "sample", must_not_run)
        monkeypatch.setattr(np.random, "default_rng", no_draws_rng)
        cfg = write_config(tmp_path / "c.cfg", experiment=experiment, **{key: value})
        out = tmp_path / "o.csv"
        assert run_cli("--config", cfg, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        if key.endswith("kick"):
            assert "kick" in err
        assert not out.exists()

    def test_reverse_rejects_bad_row_before_running_any(self, tmp_path, capsys,
                                                         monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a reversal row ran before every row was validated")

        for name in ("reversal_probabilities", "reversal_probability", "lyapunov"):
            monkeypatch.setattr(rev_mod, name, must_not_run)
        cfg = write_config(tmp_path / "c.cfg", experiment="classical-reverse",
                           t_values="5,-1")
        out = tmp_path / "o.csv"
        assert run_cli("--config", cfg, "--out", str(out)) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t_values", [
        ",".join(["1"] * (rev_mod.MAX_ROWS + 1)),
        "15000,15000,15000",  # 1.5e9 sample-steps each at the default 1e5 samples
    ])
    def test_reverse_rejects_oversized_run_before_running_any(self, tmp_path, capsys,
                                                              monkeypatch, t_values):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a reversal row ran before the run caps were checked")

        for name in ("reversal_probability", "lyapunov"):
            monkeypatch.setattr(rev_mod, name, must_not_run)
        cfg = write_config(tmp_path / "c.cfg", experiment="classical-reverse",
                           t_values=t_values)
        out = tmp_path / "o.csv"
        assert run_cli("--config", cfg, "--out", str(out)) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_echo_rejects_times_before_running_ensemble(self, tmp_path, capsys,
                                                        monkeypatch):
        def must_not_run(self, members):
            raise AssertionError("an ensemble member ran before the times were checked")

        monkeypatch.setattr(echo_mod.GaussianPerturbation, "draw_values", must_not_run)
        cfg = write_config(tmp_path / "c.cfg", experiment="echo", times="5,0")
        out = tmp_path / "o.csv"
        assert run_cli("--config", cfg, "--out", str(out)) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_echo_rejects_huge_ensemble_before_drawing_any(self, tmp_path, capsys,
                                                           monkeypatch):
        def must_not_run(self, members):
            raise AssertionError("an ensemble member was drawn before the size was checked")

        monkeypatch.setattr(echo_mod.GaussianPerturbation, "draw_values", must_not_run)
        cfg = write_config(tmp_path / "c.cfg", experiment="echo", ensemble="1000000000")
        out = tmp_path / "o.csv"
        assert run_cli("--config", cfg, "--out", str(out)) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_echo_rejects_oversized_run_before_drawing_any(self, tmp_path, capsys,
                                                           monkeypatch):
        # once an exit 1: the members x times overlaps alone asked for 244 GiB
        def must_not_run(self, members):
            raise AssertionError("an ensemble member was drawn before the run size was checked")

        monkeypatch.setattr(echo_mod.GaussianPerturbation, "draw_values", must_not_run)
        cfg = write_config(tmp_path / "c.cfg", experiment="echo", j="0.5", ensemble="32768",
                           times=",".join(map(str, range(1000000))))
        out = tmp_path / "o.csv"
        assert run_cli("--config", cfg, "--out", str(out)) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_echo_rejects_subnormal_sigma_without_times(self, tmp_path, capsys):
        # the default times 0, 1/sigma, 2/sigma, 4/sigma overflow to inf; the
        # error once named no parameter
        cfg = write_config(tmp_path / "c.cfg", experiment="echo", j="2", ensemble="100",
                           sigma_scale="1e-320")
        out = tmp_path / "o.csv"
        assert run_cli("--config", cfg, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "sigma_scale" in err and "times=" in err
        assert not out.exists()

    def test_sampled_bell_rejects_huge_shots_before_drawing_any(self, tmp_path, capsys,
                                                                monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", no_draws_rng)
        cfg = write_config(tmp_path / "c.cfg", experiment="bell", sampled="true",
                           shots=str(bell_mod.MAX_SHOTS + 1))
        out = tmp_path / "o.csv"
        assert run_cli("--config", cfg, "--out", str(out)) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_io_error_is_4(self, tmp_path):
        assert run_cli("--experiment", "bell",
                       "--out", str(tmp_path / "no" / "dir" / "o.csv")) == 4

    def test_success_is_0(self, tmp_path):
        assert run_cli("--experiment", "friend", "--out", str(tmp_path / "f.txt")) == 0


class TestOutputs:
    def test_bell_summary_and_file(self, tmp_path, capsys):
        out = tmp_path / "bell.csv"
        assert run_cli("--experiment", "bell", "--out", str(out)) == 0
        assert "chsh=2.828427" in capsys.readouterr().out
        text = out.read_text()
        assert "setting_pair,correlation" in text
        assert "lhv_bound=2.000000" in text

    def test_bell_sampled_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", experiment="bell", sampled="true",
                           shots="4000")
        out = tmp_path / "bell.csv"
        assert run_cli("--config", cfg, "--seed", "3", "--out", str(out)) == 0
        assert "mode=sampled" in capsys.readouterr().out

    @pytest.mark.parametrize("sampled", [False, True], ids=["exact", "sampled"])
    def test_bell_summary_chsh_matches_library(self, tmp_path, capsys, sampled):
        seed, shots = 3, 4000
        cfg = write_config(tmp_path / "c.cfg", experiment="bell",
                           sampled=str(sampled).lower(), shots=str(shots))
        assert run_cli("--config", cfg, "--seed", str(seed),
                       "--out", str(tmp_path / "bell.csv")) == 0
        state, chsh_settings = bell_mod.build_bell_state(), bell_mod.ChshSettings.default()
        if sampled:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
            expected = chsh_value_sampled(state, chsh_settings, shots, rng)
        else:
            expected = bell_mod.chsh_value(state, chsh_settings)
        assert f"chsh={expected:.6f} " in capsys.readouterr().out

    def test_reverse_unperturbed_probability_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", experiment="classical-reverse",
                           delta_kick="0.0", t_values="5", samples="500")
        out = tmp_path / "rev.csv"
        assert run_cli("--config", cfg, "--seed", "7", "--out", str(out)) == 0
        assert "probability=1.000000" in capsys.readouterr().out
        rows = [line for line in out.read_text().splitlines()
                if line and not line.startswith("#")]
        assert rows[0] == "t,probability,std_error,bound"
        assert rows[1].startswith("5,1.0,")

    def test_echo_zero_sigma_overlap_one(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", experiment="echo", j="3",
                           sigma_scale="0.0", ensemble="100", times="0,5,10")
        out = tmp_path / "echo.csv"
        assert run_cli("--config", cfg, "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()
                if line and not line.startswith("#")]
        assert rows[0] == ["t", "mean_overlap", "std_error", "bound"]
        for row in rows[1:]:
            assert float(row[1]) == pytest.approx(1.0, abs=1e-8)

    def test_qfunction_csv(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", experiment="qfunction", j="2")
        out = tmp_path / "q.csv"
        assert run_cli("--config", cfg, "--out", str(out)) == 0
        lines = [line for line in out.read_text().splitlines()
                 if line and not line.startswith("#")]
        assert lines[0] == "theta,phi,weight,value"
        values = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert np.sum(values[:, 2] * values[:, 3]) == pytest.approx(1.0, abs=1e-8)

    def test_qfunction_file_is_streamed(self, tmp_path, monkeypatch):
        # writing the file may add less than a quarter of its size to the peak
        # the run reached through q_function_pure: no whole copy of the text
        # is held (a buffered run holds several)
        compute_peaks = []
        q_function_pure = sc.q_function_pure

        def recording(*args, **kwargs):
            qf = q_function_pure(*args, **kwargs)
            compute_peaks.append(tracemalloc.get_traced_memory()[1])
            return qf

        monkeypatch.setattr(sc, "q_function_pure", recording)
        cfg = write_config(tmp_path / "c.cfg", experiment="qfunction", j="60")
        out = tmp_path / "q.csv"
        tracemalloc.start()
        try:
            assert run_cli("--config", cfg, "--out", str(out)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (compute_peak,) = compute_peaks
        size = out.stat().st_size
        assert peak - compute_peak < size / 4, f"{peak - compute_peak} B over, file {size} B"

    def test_friend_report_keys(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", experiment="friend", observer_dim="3")
        out = tmp_path / "friend.txt"
        assert run_cli("--config", cfg, "--out", str(out)) == 0
        text = out.read_text()
        for key in ("fidelity_superposition_output", "branch_probability_up",
                    "p_plus_post_message", "message_purity"):
            assert key in text

    def test_config_echoed_with_defaults(self, tmp_path):
        out = tmp_path / "bell.csv"
        assert run_cli("--experiment", "bell", "--seed", "11", "--out", str(out)) == 0
        text = out.read_text()
        assert "# seed=11" in text
        assert "# sampled=false" in text  # default filled in
        assert "# shots=10000" in text


class TestReproducibility:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", experiment="classical-reverse",
                           t_values="3,5", samples="400")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("--config", cfg, "--seed", "5", "--out", str(a)) == 0
        assert run_cli("--config", cfg, "--seed", "5", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_reverse_runs_one_tangent_loop_per_run(self, tmp_path, monkeypatch):
        # nothing carries over between runs in one process: each estimates its
        # exponents again, all rows in one pass
        passes = []
        rows = rev_mod.lyapunov

        def counting_rows(mapping, seeds, *args, **kwargs):
            passes.append(len(seeds))
            return rows(mapping, seeds, *args, **kwargs)

        monkeypatch.setattr(rev_mod, "lyapunov", counting_rows)
        cfg = write_config(tmp_path / "c.cfg", experiment="classical-reverse", samples="400")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("--config", cfg, "--seed", "7", "--out", str(a)) == 0
        assert passes == [3]
        assert run_cli("--config", cfg, "--seed", "7", "--out", str(b)) == 0
        assert passes == [3, 3]
        assert a.read_bytes() == b.read_bytes()

    def test_lab_objects_are_built_in_every_run(self, tmp_path, monkeypatch):
        # nothing carries over between runs in one process: every run builds
        # and validates each of its objects once, the second run as the first
        built = Counter()

        def counting(owner, name, key):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                built[key] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counting(bell_mod.MacroObservable, "__post_init__", "observables")
        counting(friend_mod, "branch_states", "branch_states")
        counting(friend_mod, "_superpositions", "superpositions")
        counting(qcore.StateVector, "__init__", "states")
        counting(qcore.OperatorMatrix, "__init__", "operators")
        made, outs = [], []
        for experiment in ("bell", "bell", "friend", "friend"):
            outs.append(tmp_path / f"{len(outs)}.out")
            before = built.copy()
            assert run_cli("--experiment", experiment, "--out", str(outs[-1])) == 0
            made.append(built - before)
        # bell: two branch states and the pair state, four observables on
        # their matrices; friend: four stage states, two branches and two
        # superpositions, the message gate and the message's reduced state
        assert made[0] == made[1] == Counter(observables=4, states=3, operators=4)
        assert made[2] == made[3] == Counter(branch_states=1, superpositions=1,
                                             states=8, operators=2)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert outs[2].read_bytes() == outs[3].read_bytes()

    def test_thread_count_does_not_change_numbers(self, tmp_path):
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        cfg = write_config(tmp_path / "c.cfg", experiment="echo", j="2",
                           sigma_scale="0.05", ensemble="100", times="0,4")
        assert run_cli("--config", cfg, "--seed", "2", "--threads", "1",
                       "--out", str(out1)) == 0
        assert run_cli("--config", cfg, "--seed", "2", "--threads", "4",
                       "--out", str(out2)) == 0
        data1 = [line for line in out1.read_text().splitlines()
                 if not line.startswith("#")]
        data2 = [line for line in out2.read_text().splitlines()
                 if not line.startswith("#")]
        assert data1 == data2


def _value(numbers):
    """Config text for one key: a number or one of the malformed spellings."""
    return st.one_of(st.sampled_from(["nan", "inf", "-1", "abc", ""]), numbers.map(str))


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


def _listed(numbers, max_size):
    return st.lists(numbers, max_size=max_size).map(lambda xs: ",".join(map(str, xs)))


# numeric ranges are capped for runtime only: the largest runs take well under a second
_CONFIG_VALUES = {
    "j": _value(st.one_of(st.integers(-1, 12).map(lambda k: k / 2), _floats(-1, 6))),
    "theta0": _value(_floats(-1, 4)),
    "phi0": _value(_floats(-1, 7)),
    "grid_nodes": _value(st.integers(-2, 20)),
    "kick": _value(_floats(-1, 10)),
    "delta_kick": _value(_floats(-0.1, 1)),
    "cell_q": _value(_floats(-10, 10)),
    "cell_p": _value(_floats(-10, 10)),
    "cell_width": _value(_floats(-1, 8)),
    "t_values": st.one_of(_value(st.integers(-1, 6)), _listed(st.integers(-1, 6), 2)),
    "samples": _value(st.integers(-10, 2000)),
    "sigma_scale": _value(_floats(-0.1, 1)),
    "ensemble": _value(st.integers(-10, 150)),
    "times": st.one_of(_value(_floats(-1, 50)), _listed(_floats(-1, 50), 3)),
    "observer_dim": _value(st.integers(-1, 4)),
    "sampled": st.sampled_from(["true", "false", "yes", "0", "maybe", ""]),
    "shots": _value(st.integers(-5, 2000)),
}


@st.composite
def _configs(draw):
    experiment = draw(st.sampled_from(EXPERIMENTS))
    keys = draw(st.lists(st.sampled_from(sorted(PARAM_TABLE[experiment])), unique=True))
    return experiment, {key: draw(_CONFIG_VALUES[key]) for key in keys}


@settings(database=None, derandomize=True, deadline=None, max_examples=150)
@given(_configs(), st.integers(0, 3))
def test_any_config_ends_in_a_documented_exit_code(config, seed):
    experiment, pairs = config
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "c.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{k}={v}\n" for k, v in pairs.items()))
        out = os.path.join(tmp, "o.csv")
        code = main(["--experiment", experiment, "--config", cfg, "--seed", str(seed),
                     "--out", out])
        assert code in (0, 2, 3, 4)
        assert os.path.exists(out) == (code == 0)


def test_cli_import_leaves_numpy_random_and_fft_unloaded():
    # numpy loads both on first use; the import of numpy.random alone took
    # 8-12 ms, so a run that draws or transforms nothing never pays for them
    src = os.path.dirname(os.path.dirname(fapplab.__file__))
    code = ("import sys, fapplab.cli\n"
            "print(*[m for m in ('numpy.random', 'numpy.fft') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True)
    assert done.stdout.strip() == ""


def test_qfunction_and_echo_runs_leave_numpy_polynomial_unloaded(tmp_path):
    # numpy.polynomial came in with numpy's leggauss alone, about 0.75 MB of
    # the resident size; the sphere grid's own Newton rule needs none of it
    src = os.path.dirname(os.path.dirname(fapplab.__file__))
    runs = {"qfunction": "experiment=qfunction\nj=60\n",
            "echo": "experiment=echo\nj=10\nensemble=100\n"}
    for name, text in runs.items():
        (tmp_path / f"{name}.cfg").write_text(text, encoding="utf-8")
    code = ("import sys\nfrom fapplab.cli import main\n"
            f"for name in {sorted(runs)!r}:\n"
            f"    cfg, out = {str(tmp_path)!r} + f'/{{name}}.cfg', {str(tmp_path)!r} + f'/{{name}}.out'\n"
            "    assert main(['--config', cfg, '--seed', '5', '--out', out]) == 0\n"
            "print('numpy.polynomial' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True)
    assert done.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "qfunction.out").stat().st_size > 0
    assert (tmp_path / "echo.out").stat().st_size > 0
