"""The benchmark's layer trace must find every dplhom function it wraps.

``bench/tracing.py`` names its targets explicitly and refuses to install
when one is missing, so renaming a traced function fails here, in the test
suite, before it fails a benchmark run.
"""

import importlib.util
from pathlib import Path

import dplhom.fountain

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_cleanly():
    original = dplhom.fountain.sup_norm_constant
    tracer = _load_tracing().Tracer().install()
    try:
        assert dplhom.fountain.sup_norm_constant is not original
    finally:
        tracer.uninstall()
    assert dplhom.fountain.sup_norm_constant is original
