"""The benchmark's span tracer finds every function it names in the package.

A traced function that is renamed or deleted drops its per-layer metrics
from the benchmark, so the tracer is installed here on the package as it
is and must report nothing absent.
"""

import importlib.util
import os

import momentkit as mk
import momentkit.cli  # noqa: F401  (the tracer wraps cli.main)

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_finds_every_target_and_uninstall_restores():
    before = (mk.blocks, mk.transform_matrix, mk.evaluate_matrix,
              mk.TransformEvaluator.__call__, mk.cli.main)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert mk.blocks is not before[0]  # wrapped where the package binds it
    finally:
        tracer.uninstall()
    assert (mk.blocks, mk.transform_matrix, mk.evaluate_matrix,
            mk.TransformEvaluator.__call__, mk.cli.main) == before
