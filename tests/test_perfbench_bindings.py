"""The benchmark's wrappers still find what they wrap.

`perfbench/child.py` wraps the package's functions at the attributes their
callers look them up by. A rename or move in the package would otherwise
surface only when the benchmark runs; here it fails with the attribute's
name. The file is only read, never changed.
"""

import importlib.util
from pathlib import Path

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
