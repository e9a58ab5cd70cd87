"""The benchmark's tracer still wraps what it names and puts it back.

``perfbench/tracing.py`` rebinds module attributes of dilateq, some of which
no search calls any more (``newton_refine``, ``scan_minima``,
``scan_modulus``, ``power_sum_deriv``, ``system_residual``).  Removing one
breaks only a traced benchmark run, so this test installs the tracer, runs
one zero search and one periodicity search, and restores it.  The file is
only read here.
"""

import sys
from pathlib import Path

from dilateq import expsums, periodicity

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# tracing imports its sibling modules by bare name; no bytecode is written
# into perfbench/
sys.path.insert(0, str(PERFBENCH))
dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    import tracing
finally:
    sys.path.remove(str(PERFBENCH))
    sys.dont_write_bytecode = dont_write_bytecode


def _attribute(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_records_spans_and_restore_undoes_it():
    targets = tracing._targets()
    originals = [_attribute(owner, attr) for owner, attr, _, _ in targets]
    recorder = tracing.Recorder()
    try:
        recorder.install()
        zeros = expsums.find_zeros(10)
        certs = periodicity.find_periodic_alphas((1.0, 2.0), 10.0)
        spans = tracing.Spans(recorder)
        metrics = tracing.layer_metrics(spans, {}, 0)
    finally:
        recorder.restore()
    names = {recorder.names[i] for i in spans.name.tolist()}
    searches = {"expsums.find_zeros", "expsums.winding_count", "periodicity.find_periodic_alphas"}
    assert searches <= names
    assert metrics["expsums.find_calls"] == metrics["periodicity.find_calls"] == 1
    assert metrics["expsums.zeros_found"] == len(zeros) > 0
    assert metrics["periodicity.certificates"] == len(certs) > 0
    for (owner, attr, _, _), orig in zip(targets, originals):
        assert _attribute(owner, attr) is orig, attr
