"""The benchmark's wrappers still find what they wrap, and its `ctm_shard`
outputs still match its reference.

`perfbench/child.py` wraps the package's functions at the attributes their
callers look them up by. A rename or move in the package, or a kernel
change that moves a count, would otherwise surface only when the benchmark
runs; here it fails with the attribute's name or the shard. The files under
`perfbench/` are only read, never changed.
"""

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

from marketcomplexity.bdm.machines import enumerate_range

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


class Resolver:
    """A tracer whose `wrap` only looks the attribute up."""

    def __init__(self):
        self.bound = []

    def wrap(self, owner, attr, layer, count=None):
        self.bound.append(getattr(owner, attr))


def test_every_benchmark_binding_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    resolver = Resolver()
    child.install(resolver)
    assert resolver.bound and all(map(callable, resolver.bound))


def test_ctm_shard_outputs_match_reference(monkeypatch):
    """Every `ctm_shard` shard, laid out by `perfbench/run.py` (64 chunks of
    1 000 3-state machines, step bound 21), gives the halting count and the
    counts digest that the benchmark checks each pass against."""
    monkeypatch.syspath_prepend(str(CHILD.parent))  # run.py imports inputs.py
    spec = importlib.util.spec_from_file_location("perfbench_run", CHILD.parent / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # for its dataclasses
    spec.loader.exec_module(run)
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))["ctm_shard"]["shards"]
    assert (child.STATES, child.STEP_BOUND) == (run.CTM_STATES, 21)
    assert sorted(reference) == [str(s) for s in range(run.CTM_SHARDS)]
    for shard in range(run.CTM_SHARDS):
        workload = run.CtmWorkload(None, reference, run.CTM_CHUNK)
        assert workload.prepare(shard)["machines"] == 64_000
        bounds = [int(x) for x in workload.bounds]
        total, halting = Counter(), 0
        for start, stop in zip(bounds[::2], bounds[1::2]):
            counts, h = enumerate_range(child.STATES, child.STEP_BOUND, start, stop)
            total.update(counts)
            halting += h
        assert {"halting": halting, "digest": child.counts_digest(total)} == workload.expect
