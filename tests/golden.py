"""Golden CLI outputs: the cases, their regeneration, and a per-column diff.

The files under `tests/golden/` pin the exact bytes of small CLI runs. A change
that moves output bits on purpose regenerates them with one command,

    PYTHONPATH=src python tests/golden.py

which rewrites every `tests/golden/<case>.out` and `tests/golden/VERSIONS`, and
prints, per file, the largest absolute difference of each numeric column
against the file it replaces. For the Q-function `value` column it also prints
that difference divided by the column's peak: on nodes where Q is ~1e-230 a
per-node relative error says nothing about the distribution.

The bytes depend on numpy's and the BLAS library's rounding, and on the SIMD
kernels each of them picks for the CPU at run time, so VERSIONS records both
versions, numpy's SIMD extensions found on the CPU and the OpenBLAS core
next to the files.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import os
import platform
import tempfile
from pathlib import Path

import numpy as np

from fapplab.cli import main as cli_main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: case name -> (experiment, seed, config entries). The first five are the
#: configs of acceptance criterion 7 at its seed.
CASES = {
    "bell": ("bell", 99, {}),
    "friend": ("friend", 99, {}),
    "qfunction": ("qfunction", 99, {"j": "5"}),
    "classical-reverse": ("classical-reverse", 99, {"t_values": "3,6", "samples": "2000"}),
    "echo": ("echo", 99, {"j": "3", "ensemble": "100", "times": "0,5,10"}),
    "friend-observer3": ("friend", 99, {"observer_dim": "3"}),
    "bell-sampled": ("bell", 3, {"sampled": "true", "shots": "2000"}),
    # 40000 samples span three map-kernel chunks, the last one ragged
    "classical-reverse-chunks": ("classical-reverse", 99,
                                 {"t_values": "3,6", "samples": "40000"}),
    # K = 14 >= 4pi takes the np.remainder fallback of the map kernel
    "classical-reverse-strong": ("classical-reverse", 99,
                                 {"kick": "14", "delta_kick": "0.5", "samples": "2000",
                                  "t_values": "3,6"}),
    # 150 members on the 42 x 42 grid of j = 20 span several overlap chunks,
    # the last one ragged
    "echo-chunks": ("echo", 99, {"j": "20", "ensemble": "150"}),
    # sigma = 0: every member is the same state at every time; std_error reads
    # ~1e-16, not 0, the spread of identical values around their rounded mean
    "echo-bypass": ("echo", 99, {"j": "5", "ensemble": "100", "sigma_scale": "0"}),
    # the shot count of the benchmark's sampled bell runs
    "bell-sampled-1e5": ("bell", 17, {"sampled": "true", "shots": "100000"}),
}


def render(case: str) -> bytes:
    """Run one case through the CLI and return its output file's bytes."""
    experiment, seed, params = CASES[case]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in params.items()), encoding="utf-8")
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["--experiment", experiment, "--config", str(cfg),
                             "--seed", str(seed), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"golden case {case} exited {code}")
        return out.read_bytes()


def _columns(text: str):
    """Comment lines, and the values of each column by name: CSV columns under
    their header name, `key=value` report lines as one-value columns."""
    comments, columns, header = [], {}, None
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif "," in line:
            cells = line.split(",")
            if header is None:
                header = cells
                columns.update((name, []) for name in header)
            else:
                for name, cell in zip(header, cells):
                    columns[name].append(cell)
        elif "=" in line:
            key, _, value = line.partition("=")
            columns[key] = [value]
    return comments, columns


def column_diffs(old: str, new: str) -> list:
    """One line per numeric column: its largest absolute difference, and for
    the Q `value` column also that difference over the column's peak."""
    old_comments, old_cols = _columns(old)
    new_comments, new_cols = _columns(new)
    lines = []
    if old_comments != new_comments:
        lines.append("  comment lines differ")
    for name in old_cols.keys() | new_cols.keys():
        a_text, b_text = old_cols.get(name), new_cols.get(name)
        if a_text is None or b_text is None or len(a_text) != len(b_text):
            lines.append(f"  {name}: present or sized differently")
            continue
        try:
            a = np.array([float(x) for x in a_text])
            b = np.array([float(x) for x in b_text])
        except ValueError:
            lines.append(f"  {name}: {'identical' if a_text == b_text else 'DIFFERS'} (text)")
            continue
        worst = float(np.max(np.abs(a - b)))
        text = f"  {name}: max |diff| = {worst:.3e}"
        if name == "value":
            peak = float(np.max(np.abs(a)))
            text += f", / peak {peak:.4g} = {worst / peak:.3e}"
        if a_text == b_text:
            text += " (bytes identical)"
        lines.append(text)
    return sorted(lines)


def _openblas_core() -> str:
    """The kernel set that numpy's bundled OpenBLAS picked for this CPU."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                       "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            if hasattr(lib, symbol):
                corename = getattr(lib, symbol)
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


def versions() -> str:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = ", ".join(config["SIMD Extensions"]["found"])
    return (f"python {platform.python_version()}\n"
            f"numpy {np.__version__}\n"
            f"numpy simd found: {simd}\n"
            f"blas {blas['name']} {blas['version']}\n"
            f"blas core {_openblas_core()}\n")


def regenerate() -> None:
    """Rewrite every golden file and print the per-column diff against the old one."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in CASES:
        path = GOLDEN_DIR / f"{case}.out"
        new = render(case)
        if path.exists():
            old = path.read_bytes()
            print(f"{case}: {'identical' if old == new else 'changed'}")
            if old != new:
                print("\n".join(column_diffs(old.decode(), new.decode())))
        else:
            print(f"{case}: new")
        path.write_bytes(new)
    (GOLDEN_DIR / "VERSIONS").write_text(versions(), encoding="utf-8")


if __name__ == "__main__":
    regenerate()
