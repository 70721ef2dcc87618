"""The benchmark tracer's contract with the library.

``perfbench/tracing.py`` patches public names on entkit's modules by
attribute name.  A rename or a removed import would break the traced
benchmark run without failing any other test, so this test installs the
tracer, runs one invariance and one classification operation under it,
and checks that every patched name existed and is restored afterwards.
"""

import importlib.util
from pathlib import Path

import entkit
import entkit.sampling as sampling
from entkit import bell_state, ghz_state

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("entkit_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_patched_and_restored():
    tracing = load_tracing()
    # getattr raises AttributeError for a target the library no longer has
    before = [(module, attr, getattr(module, attr)) for module, attr, _ in tracing.TARGETS]
    before.append((sampling, "named_invariant", sampling.named_invariant))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, attr, orig in before:
            assert getattr(module, attr) is not orig, f"{module.__name__}.{attr} not patched"
        report = tracer.run_op(
            0, "invariance", lambda: entkit.invariance_suite(bell_state("phi+"), "det", trials=3)
        )
        invariance_spans = set(tracer.op_stats)
        tracer.run_op(1, "classify", lambda: entkit.classify_state(ghz_state(3)))
        classify_spans = set(tracer.op_stats)
    finally:
        tracer.uninstall()
    for module, attr, orig in before:
        assert getattr(module, attr) is orig, f"{module.__name__}.{attr} not restored"
    assert report.trials == 3
    assert {"invariance", "sampling.invariance_suite"} <= invariance_spans
    assert {
        "classify",
        "classify.classify_state",
        "schmidt.schmidt_decompose",
        tracing.HYPERDET,
    } <= classify_spans
