"""Output checks for every fapplab call the benchmark makes.

A call passes when its output file
1. holds the invariants of its experiment (Q integral 1 and the closed-form
   coherent-state Q law, echo overlap 1 at t=0, CHSH 2*sqrt(2) in exact mode,
   LHV bound 2, ...), and
2. for the reference-seed warm-up run, matches the values stored in
   `reference.json` within a numeric tolerance, so that a ULP-level change
   from a kernel rewrite passes while a changed result (such as a Lyapunov
   exponent computed once instead of once per t) fails.
Byte-identical reruns with the same seed are checked by the worker.
"""

from __future__ import annotations

from math import log, pi, sqrt

import numpy as np

SQRT8 = 2 * sqrt(2)
LN3 = log(3.0)
QMAP_SAMPLE_ROWS = 48


def parse_output(text: str):
    """Split an output file into comment key=values, CSV columns and report lines."""
    meta, report, rows = {}, {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            for token in line[1:].split():
                key, sep, value = token.partition("=")
                if sep:
                    meta[key] = value
        elif "," in line:
            rows.append(line)
        elif "=" in line:
            key, _, value = line.partition("=")
            report[key] = value
    table = {}
    if rows:
        header = rows[0].split(",")
        cells = [row.split(",") for row in rows[1:]]
        for k, name in enumerate(header):
            column = [c[k] for c in cells]
            table[name] = column if name == "setting_pair" else np.array(column, dtype=float)
    return meta, table, report


def _close(a, b, atol):
    return abs(a - b) <= atol


def invariant_errors(call, text: str) -> list:
    """Experiment invariants and closed-form oracles; empty when all hold."""
    meta, table, report = parse_output(text)
    errors = []
    if meta.get("experiment") != call.experiment or meta.get("seed") != str(call.seed):
        return [f"preamble does not echo experiment/seed: {meta}"]
    exp = call.experiment
    if exp == "qfunction":
        j = float(call.param("j"))
        n = round(2 * j) + 2
        if table.get("value", np.array([])).size != n * n:
            return [f"expected {n * n} Q rows"]
        theta, phi, w, q = table["theta"], table["phi"], table["weight"], table["value"]
        integral = float(np.sum(w * q))
        if not _close(integral, 1.0, 1e-8):
            errors.append(f"Q integral {integral!r} != 1")
        t0, p0 = float(call.param("theta0")), float(call.param("phi0"))
        cos_gamma = np.cos(theta) * np.cos(t0) + np.sin(theta) * np.sin(t0) * np.cos(phi - p0)
        peak = (2 * j + 1) / (4 * pi)
        law = peak * ((1 + cos_gamma) / 2) ** (2 * j)
        worst = float(np.max(np.abs(q - law)))
        if worst > 1e-9 * peak:
            errors.append(f"Q deviates from the cos^(4j) law by {worst:.3e}")
    elif exp == "echo":
        t, mo, se, bound = (table.get(k) for k in ("t", "mean_overlap", "std_error", "bound"))
        if t is None or t.size != 4:
            return ["expected 4 echo rows"]
        if t[0] != 0.0 or not _close(mo[0], 1.0, 1e-10):
            errors.append(f"echo overlap at t=0 is {mo[0]!r}, not 1")
        if np.any(mo < 0) or np.any(mo > 1) or np.any(se < 0):
            errors.append("echo overlap outside [0, 1] or negative standard error")
        expected = np.exp(-(t / t[1]) ** 2 / 4)  # default times are 0, 1, 2, 4 / sigma
        if not np.allclose(bound, expected, rtol=1e-9, atol=0):
            errors.append("echo bound column is not exp(-(sigma t)^2 / 4)")
    elif exp == "classical-reverse":
        t_values = [int(x) for x in call.param("t_values", "5,10,15").split(",")]
        samples = int(call.param("samples", "100000"))
        t, prob, se, bound = (table.get(k) for k in ("t", "probability", "std_error", "bound"))
        if t is None or list(t.astype(int)) != t_values:
            return [f"expected rows for t = {t_values}"]
        if np.any(prob < 0) or np.any(prob > 1):
            errors.append("probability outside [0, 1]")
        if not np.allclose(se, np.sqrt(prob * (1 - prob) / samples), rtol=1e-12, atol=0):
            errors.append("std_error is not sqrt(p(1-p)/samples)")
        lam = -np.log(bound) / t
        if np.any(np.abs(lam - LN3) > 0.15):
            errors.append(f"Lyapunov estimates {lam} not within 0.15 of ln 3")
    elif exp == "friend":
        expected = {"branch_probability_up": 0.5, "branch_probability_down": 0.5,
                    "p_plus_pre_message": 1.0, "p_plus_post_message": 1.0,
                    "fidelity_superposition_output": 1.0, "message_purity": 1.0,
                    "message_mutual_information": 0.0}
        for key, want in expected.items():
            got = float(report.get(key, "nan"))
            if not _close(got, want, 1e-9):
                errors.append(f"{key}={got!r}, expected {want}")
    elif exp == "bell":
        corr = dict(zip(table.get("setting_pair", []), table.get("correlation", [])))
        if sorted(corr) != ["a1b1", "a1b2", "a2b1", "a2b2"]:
            return ["expected four setting pairs"]
        chsh = abs(corr["a1b1"] + corr["a1b2"] + corr["a2b1"] - corr["a2b2"])
        if meta.get("lhv_bound") != "2.000000":
            errors.append(f"lhv_bound={meta.get('lhv_bound')}, expected 2")
        if call.param("sampled") == "true":
            if any(abs(c) > 1 for c in corr.values()):
                errors.append("sampled correlation outside [-1, 1]")
            if not _close(chsh, SQRT8, 0.05):  # about 10 standard errors at 1e5 shots
                errors.append(f"sampled chsh {chsh!r} far from 2 sqrt 2")
        elif not _close(chsh, SQRT8, 1e-9):
            errors.append(f"exact chsh {chsh!r} != 2 sqrt 2")
    return errors


def summarize(call, text: str) -> dict:
    """The values of an output that reference.json stores (name -> float)."""
    meta, table, report = parse_output(text)
    if call.experiment == "qfunction":
        q, w = table["value"], table["weight"]
        out = {"rows": float(q.size), "integral": float(np.sum(w * q)),
               "max": float(q.max()), "second_moment": float(np.sum(w * q * q))}
        for k in np.linspace(0, q.size - 1, QMAP_SAMPLE_ROWS).astype(int):
            for col in ("theta", "phi", "weight", "value"):
                out[f"{col}@{k}"] = float(table[col][k])
        return out
    if call.experiment == "friend":
        return {key: float(value) for key, value in report.items()}
    out = {}
    for col, values in table.items():
        if col == "setting_pair":
            continue
        labels = table.get("setting_pair", range(len(values)))
        for label, value in zip(labels, values):
            out[f"{col}@{label}"] = float(value)
    return out


def _tolerance(call, name: str):
    """(rtol, atol) for one stored value."""
    col = name.split("@")[0]
    if call.experiment == "classical-reverse" and col in ("probability", "std_error"):
        return 0.0, 3.0 / int(call.param("samples", "100000"))  # three samples flip
    if call.experiment == "bell" and call.param("sampled") == "true":
        return 0.0, 5.0 / int(call.param("shots"))  # five shots change
    if call.experiment == "qfunction" and col in ("value", "max"):
        return 1e-9, 1e-10
    return 1e-9, 1e-12


def reference_errors(call, text: str, stored: dict) -> list:
    """Differences from the stored values beyond their tolerance."""
    got = summarize(call, text)
    if sorted(got) != sorted(stored):
        return ["output has different fields than the stored reference"]
    errors = []
    for name, want in stored.items():
        rtol, atol = _tolerance(call, name)
        if abs(got[name] - want) > atol + rtol * abs(want):
            errors.append(f"{name}={got[name]!r}, stored {want!r}")
    return errors
