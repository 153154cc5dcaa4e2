"""The benchmark's span tracer finds every function it names in the package.

A traced function that is renamed or deleted drops its per-layer metrics
from the benchmark, so the tracer is installed here on the package as it
is and must report nothing absent.
"""

import importlib.util
import os

import momentkit.cli as cli
import momentkit.nevanlinna as nev

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_finds_every_target_and_uninstall_restores():
    before = (nev.blocks, nev.transform_matrix, nev.evaluate_matrix,
              nev.TransformEvaluator.__call__, cli.main)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert nev.blocks is not before[0]  # wrapped where its module binds it
    finally:
        tracer.uninstall()
    assert (nev.blocks, nev.transform_matrix, nev.evaluate_matrix,
            nev.TransformEvaluator.__call__, cli.main) == before
