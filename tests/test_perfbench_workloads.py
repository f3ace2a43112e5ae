"""The benchmark's workloads still run against the library.

perfbench/workloads.py calls the library's public entry points by name and
position; a change that breaks one of those calls fails here, at smoke size,
as well as in the benchmark's own smoke run.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_plays_one_round_of_each_kind(name):
    workload = workloads.WORKLOADS[name](1, smoke=True)
    checks = workloads.Checks()
    kinds = [workload.play(index, checks) for index in range(len(workload.round_items))]
    assert {kind for kind, _ in kinds} == set(workload.round_items)
    assert all(items > 0 for _, items in kinds)
    workload.finish(checks)
    assert checks.failures == []
    assert checks.attempted > 0


TRACER_PY = WORKLOADS_PY.with_name("tracer.py")
_tracer_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PY)
tracer = importlib.util.module_from_spec(_tracer_spec)
_tracer_spec.loader.exec_module(tracer)


def test_tracer_spans_name_library_functions():
    # every span the benchmark wraps resolves in the library, bar the four
    # whose functions are gone; a rename that strands another fails here
    def resolves(module_name, attr):
        owner = importlib.import_module(f"securejscc.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        return callable(owner)
    unresolved = {f"{module_name}.{attr}" for _, module_name, attr in tracer.TARGETS
                  if not resolves(module_name, attr)}
    assert unresolved == {"pipeline.transmit", "lwe.derive_errors", "lwe.decrypt_noisy",
                          "lwe.sample_discrete_gaussian"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_rounds_count_every_workloads_encryptions(name):
    # every ciphertext comes from lwe.encrypt, the one encryption span, so a
    # traced round of any workload counts its encryptions
    workload = workloads.WORKLOADS[name](1, smoke=True)
    checks = workloads.Checks()
    spans = tracer.Tracer()
    spans.install()
    try:
        for index in range(len(workload.round_items)):
            workload.play(index, checks)
    finally:
        spans.uninstall()
    assert checks.failures == []
    assert spans.summary(workloads.AVG_POWER)["layers"]["lwe.encrypt.calls"] > 0
