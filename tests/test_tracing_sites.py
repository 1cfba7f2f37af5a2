"""The names the benchmark tracer rebinds must exist where it looks them up.

``benchmarks/tracing.py`` is loaded by path, as it stands: a renamed or
deleted library name would otherwise break a traced benchmark run without a
failing test here.
"""

import importlib.util
from pathlib import Path

import socle

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("socle_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_is_bound_on_its_owner():
    # installed() reads vars(owner)[attr], so an inherited or missing name fails
    for layer, owner, attr in load_tracing().layer_sites(socle):
        assert attr in vars(owner), (layer, owner, attr)
    # the linalg.rank wrapper calls eliminate_columns in place of the rank
    assert callable(socle.linalg.eliminate_columns)
