"""The benchmark's tracer (``bench/tracer.py``) patches steinlab's
functions by name; entering it fails when a traced name is gone, so a
rename here would otherwise only surface in a traced benchmark run."""

import importlib.util
from pathlib import Path

from steinlab import matrices
from steinlab.cli import run
from steinlab.fields import Field

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


JOB = ["functor", "dimtable", "--ring", "F_2", "--coeff", "F_3",
       "--functor", "tdelta", "--rank", "3"]


def test_span_tracer_enters_and_restores():
    tracer = load_tracer()
    rref = matrices.Matrix.rref
    with tracer.SpanTracer() as spans:
        assert matrices.Matrix.rref is not rref
        traced = run(JOB)
    assert matrices.Matrix.rref is rref
    assert traced[0] == 0 and run(JOB) == traced
    calls, _ = spans.summary()
    assert calls["functorcat.iext_value"] > 0
    assert calls["rings.monoid_closure"] > 0
    assert calls["matrices.span_from_spins"] > 0
    assert calls["matrices.rref"] > 0


def test_op_counter_enters_and_restores():
    tracer = load_tracer()
    add = Field.add
    with tracer.OpCounter() as ops:
        run(JOB)
    assert Field.add is add
    assert ops.counts["prime"] > 0
