"""Example-script smoke tests: the shipped examples must stay runnable.

Heavy examples (paper-scale simulations, full figure rendering) are
exercised by the benchmark harness instead; here we run the fast ones end
to end as subprocesses.
"""

import pathlib
import subprocess
import sys

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: int = 240, *args: str):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_examples_exist():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert {"quickstart.py", "knn_fractal.py", "resnet_inference.py",
            "design_space.py", "compile_network.py", "train_network.py",
            "ablation_sweep.py", "render_figures.py"} <= names


def test_quickstart(tmp_path):
    out = run_example("quickstart.py")
    assert "max_err" in out
    assert "Cambricon-F100" in out
    assert "timing simulation" in out


def test_compile_network():
    out = run_example("compile_network.py")
    assert "same binary, same numbers" in out
    assert "max difference across machines: 0.00e+00" in out


def test_train_network():
    out = run_example("train_network.py")
    assert "converged" in out


def test_shipped_knn_program_assembles():
    from repro.frontend import assemble
    src = (EXAMPLES / "programs" / "knn.fisa").read_text()
    w = assemble(src, "knn")
    assert len(w.program) == 3
    assert len(w.outputs) == 3
