"""The benchmark's layer trace must find every dplhom function it wraps.

``bench/tracing.py`` names its targets explicitly and refuses to install
when one is missing, so renaming a traced function fails here, in the test
suite, before it fails a benchmark run.  The benchmark's whole self-test
(``bench/selftest.py``) runs here too, so a change that leaves a traced
layer uncalled or lets a planted fault through fails the suite.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import dplhom.fountain

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_TRACING = _BENCH / "tracing.py"


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


def test_benchmark_selftest_passes():
    out = subprocess.run([sys.executable, str(_BENCH / "selftest.py")],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
