"""The names the benchmark harness binds in the package still exist.

`bench/tracing.py` wraps the functions its TARGETS table names, and
`bench/pin.py` reads and rebinds `msic.solver` attributes.  A rename or
deletion in the package would break the traced benchmark run at
`Tracer.install` without failing any package test; these checks catch
it.  The harness files are read, never changed.
"""

from __future__ import annotations

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import msic.solver as solver

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH_DIR / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    # no bytecode cache is written next to the harness
    was, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = was
        del sys.modules[spec.name]
    return module


def test_every_trace_target_resolves():
    targets = _load_tracing().TARGETS
    assert targets
    for module, attr, _, _ in targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_every_solver_name_pin_reads_exists():
    names = set(re.findall(r"\bsolver\.(\w+)", (BENCH_DIR / "pin.py").read_text()))
    assert "basis_add" in names
    missing = sorted(name for name in names if not hasattr(solver, name))
    assert missing == []


def test_table_rows_count_every_option(ex1):
    # the trace's row count is the sum of len(t.keys) over the tables
    tables = solver._build_tables(ex1)
    assert tables
    assert all(len(t.keys) == t.count for t in tables)
