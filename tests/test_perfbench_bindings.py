"""The benchmark's wrappers still find what they wrap, and its `report` and
`ctm_shard` outputs still match its reference.

`perfbench/child.py` wraps the package's functions at the attributes their
callers look them up by. A rename or move in the package, or a change that
moves an output byte or a count, would otherwise surface only when the
benchmark runs; here it fails with the attribute's name, the file or the
shard. The files under `perfbench/` are only read, never changed.
"""

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from marketcomplexity.bdm.machines import enumerate_range
from marketcomplexity.cli import main

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _load(name: str, path: Path, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def child(monkeypatch):
    return _load("perfbench_child", CHILD, monkeypatch)


@pytest.fixture
def run(monkeypatch):
    monkeypatch.syspath_prepend(str(CHILD.parent))  # run.py imports inputs.py
    return _load("perfbench_run", CHILD.parent / "run.py", monkeypatch)


class Resolver:
    """A tracer whose `wrap` only looks the attribute up."""

    def __init__(self):
        self.bound = []

    def wrap(self, owner, attr, layer, count=None):
        self.bound.append(getattr(owner, attr))


def test_every_benchmark_binding_resolves(child):
    resolver = Resolver()
    child.install(resolver)
    assert resolver.bound and all(map(callable, resolver.bound))


def test_report_outputs_match_reference(run, tmp_path, monkeypatch):
    """`report` on the benchmark's default-seed inputs, written by
    `perfbench/inputs.py` at `perfbench/run.py`'s sizes (12 markets of 5 000
    closes, 6 pairs), exits with the code and writes the bytes that the
    benchmark checks each pass against."""
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))["report"]
    workload = run.ReportWorkload(
        run.Runner(tmp_path), reference, recorded=True, points=run.REPORT_POINTS
    )
    assert workload.prepare(run.DEFAULT_SEED)["inputs_sha256"] == reference["inputs_sha256"]
    monkeypatch.chdir(tmp_path)
    assert main(["report", "--config", "run.cfg"]) == reference["exit_code"]
    written = {p.name: run.sha256(p.read_bytes()) for p in workload.out.iterdir()}
    assert written == reference["files"]


def test_ctm_shard_outputs_match_reference(run, child):
    """Every `ctm_shard` shard, laid out by `perfbench/run.py` (64 chunks of
    1 000 3-state machines, step bound 21), gives the halting count and the
    counts digest that the benchmark checks each pass against."""
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
