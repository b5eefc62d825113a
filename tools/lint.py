#!/usr/bin/env python
"""Lint session: ruff over the source tree + `repro lint` over shipped programs.

Run as ``python tools/lint.py`` from the repository root.  Three stages:

1. **ruff** (config in ``pyproject.toml``) over ``src/``, ``tests/``,
   ``tools/`` and ``benchmarks/``.  ruff is optional tooling -- offline
   environments may not have it, so its absence is reported as a skip,
   not a failure (the strict stage skips likewise).
2. **ruff, strict profile** over the entire ``src/repro`` tree (paths and
   select set in ``[tool.repro.lint]`` of pyproject.toml; the historic
   per-package allowlist is gone -- every package is held to the
   comprehension/simplify/return bar the instrumentation code pioneered).
3. **FISA static analysis smoke**: ``python -m repro lint`` over every
   ``examples/programs/*.fisa`` (must exit 0) and over the negative
   fixtures in ``tests/fixtures/`` (must exit non-zero -- they exist to
   prove the analyzer fires).

Exit code is non-zero if any mandatory stage fails, making this suitable
as a CI job.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(argv: list[str]) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(argv, cwd=ROOT, env=env).returncode


def stage_ruff() -> bool:
    if importlib.util.find_spec("ruff") is None:
        print("[lint] ruff not installed -- skipping style stage "
              "(pip install ruff to enable)")
        return True
    print("[lint] ruff check src tests tools benchmarks")
    return _run([sys.executable, "-m", "ruff", "check", "src", "tests", "tools",
                 "benchmarks"]) == 0


def _telemetry_lint_config() -> tuple:
    """(paths, select) for the strict stage from pyproject.toml."""
    paths = ["src/repro"]
    select = "E,W,F,I,B,C4,SIM,RET"
    try:  # tomllib is py311+; fall back to the defaults above without it
        import tomllib
    except ImportError:
        return paths, select
    try:
        with open(ROOT / "pyproject.toml", "rb") as f:
            cfg = tomllib.load(f)
        section = cfg.get("tool", {}).get("repro", {}).get("lint", {})
        paths = section.get("telemetry-paths", paths)
        select = section.get("telemetry-select", select)
    except OSError:
        pass
    return paths, select


def stage_ruff_telemetry() -> bool:
    """Strict ruff profile over src/repro (skip if ruff is absent)."""
    if importlib.util.find_spec("ruff") is None:
        print("[lint] ruff not installed -- skipping strict stage")
        return True
    paths, select = _telemetry_lint_config()
    existing = [p for p in paths if (ROOT / p).exists()]
    if not existing:
        print("[lint] FAIL: strict lint paths missing: " + ", ".join(paths))
        return False
    print(f"[lint] ruff check --select {select} {' '.join(existing)}")
    return _run([sys.executable, "-m", "ruff", "check",
                 "--select", select, *existing]) == 0


def stage_fisa() -> bool:
    ok = True

    shipped = sorted((ROOT / "examples" / "programs").glob("*.fisa"))
    if not shipped:
        print("[lint] FAIL: no shipped .fisa programs found")
        return False
    print(f"[lint] repro lint over {len(shipped)} shipped program(s)")
    rc = _run([sys.executable, "-m", "repro", "lint", *map(str, shipped)])
    if rc != 0:
        print(f"[lint] FAIL: shipped programs must be analyzer-clean (exit {rc})")
        ok = False

    fixtures = sorted((ROOT / "tests" / "fixtures").glob("*.fisa"))
    for fixture in fixtures:
        # Every negative fixture must be *rejected* -- in strict mode, so
        # warning-only fixtures (e.g. dtype mixes) count as firing too.
        rc = _run([sys.executable, "-m", "repro", "lint", "--strict", str(fixture)])
        if rc == 0:
            print(f"[lint] FAIL: negative fixture {fixture.name} passed strict lint")
            ok = False

    return ok


def main() -> int:
    failed = []
    if not stage_ruff():
        failed.append("ruff")
    if not stage_ruff_telemetry():
        failed.append("ruff-telemetry")
    if not stage_fisa():
        failed.append("fisa")
    if failed:
        print(f"[lint] FAILED stages: {', '.join(failed)}")
        return 1
    print("[lint] all stages passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
