"""One benchmark process: a `report`, or passes over the CTM enumeration chunks.

    python3 child.py report RESULT_JSON TRACE CLI_ARG...
    python3 child.py ctm RESULT_JSON TRACE SECONDS START STOP [START STOP ...]

`report` imports `marketcomplexity.cli` and runs `cli.main` on the given
arguments; its exit code is the one `cli.main` returns. The package's
public functions are wrapped at the attributes their callers look up. With
TRACE 0 the process records marks: a timestamp at every import of a module
not yet loaded (the interpreter's `import` audit event) and on entry to and
exit from each wrapped call, about 1 400 in all. Consecutive marks cut the
process into short segments, and the parent keeps each segment's fastest
time over its processes. With TRACE 1 the wrappers write spans and counts
instead.

`ctm` imports `marketcomplexity.cli`, as a `ctm-gen` process does, then makes
passes over the chunks, one `bdm.enumerate_range(3, 21, start, stop)` call
each, until the next pass would end more than SECONDS after the process
started (one pass at least). It writes each chunk's
call time per pass, and each pass's halting count and a digest of its
sorted output counts. With TRACE 1 the wrappers record spans as well.

A span is (layer, start, end, parent index). Nothing under `src/` is
changed: the wrappers and the audit hook live only in this process.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import sys
import time
from collections import Counter

STATES, STEP_BOUND = 3, 21


class Marks:
    """Timestamps that cut one process into segments.

    The process is held to one processor at a time and moves to the next
    one at the first mark after each `MOVE_S`, starting from a random one:
    on a shared host one processor can be slowed by a neighbour for seconds
    while another is not, and each segment's fastest time over the
    processes should come from all of them."""

    MOVE_S = 0.25

    def __init__(self):
        self.t = [time.perf_counter()]
        self.cpus = sorted(os.sched_getaffinity(0))
        self.cpu = random.randrange(len(self.cpus))
        self.moved = -self.MOVE_S
        self.move()
        sys.addaudithook(self._audit)

    def move(self) -> None:
        now = time.perf_counter()
        if now - self.moved >= self.MOVE_S:
            self.cpu = (self.cpu + 1) % len(self.cpus)
            os.sched_setaffinity(0, {self.cpus[self.cpu]})
            self.moved = now

    def mark(self) -> None:
        self.t.append(time.perf_counter())
        self.move()

    def _audit(self, event: str, args) -> None:
        if event == "import":
            self.mark()

    def wrap(self, owner, attr: str, layer: str, count=None) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            self.mark()
            try:
                return fn(*args, **kwargs)
            finally:
                self.mark()

        setattr(owner, attr, marked)


class Tracer:
    """Records a span per call into a wrapped function, plus counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, Counter] = {}
        self._open: list[int] = []

    def wrap(self, owner, attr: str, layer: str, count=None) -> None:
        fn = getattr(owner, attr)
        counts = self.counts.setdefault(layer, Counter())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = [layer, time.perf_counter(), 0.0, parent]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if count is not None:
                counts.update(count(args, kwargs, result))
            return result

        setattr(owner, attr, traced)


def _bdm_windows(args, kwargs, result):
    n, d = len(args[0]), kwargs.get("d", 4)
    overlap = kwargs.get("overlap") or d
    return {"windows": (n - d) // overlap + 1}


def install(tracer: Tracer | Marks) -> None:
    """Wrap each layer's public functions where the caller looks them up:
    `cli` binds `parse_csv`, `compute_market_metrics` and
    `ctm_from_frequency` at import; `analysis` imports `encode`, `entropy`,
    `fractal`, `lzw`, `returns` and `bdm.bdm` at call time; `cli` reaches
    `align` and `returns` through the module; `_default_table` imports
    `bdm.enumerate_machines` at call time, which calls the module-level
    `enumerate_range`."""
    from marketcomplexity import align, bdm, cli, encode, entropy, fractal
    from marketcomplexity import ingest, lzw, returns
    from marketcomplexity.bdm import machines, table

    w = tracer.wrap
    w(cli, "main", "cli")
    w(cli, "parse_csv", "ingest", lambda a, k, r: {"points": len(r)})
    w(ingest.PriceSeries, "sampled", "ingest")
    w(cli, "compute_market_metrics", "analysis")
    w(encode, "binarize", "encode", lambda a, k, r: {"bytes": len(r)})
    w(encode, "serialize_prices", "encode", lambda a, k, r: {"bytes": len(r)})
    w(lzw, "compressibility", "lzw", lambda a, k, r: {"bytes_in": len(a[0])})
    w(entropy, "block_entropy", "entropy")
    for name in ("log_returns", "moments", "build_histogram"):
        w(returns, name, "returns")
    for name in ("to_unit_grid", "hall_wood_dimension", "hall_wood_ols"):
        w(fractal, name, "fractal")
    w(align, "detect_peaks", "align", lambda a, k, r: {"points": len(a[0])})
    w(align, "align", "align", lambda a, k, r: {"points": len(a[0]) + len(a[1])})
    w(bdm, "bdm", "bdm.decompose", _bdm_windows)
    entries = lambda a, k, r: {"entries": len(r.values)}  # noqa: E731
    w(cli, "ctm_from_frequency", "bdm.table", entries)
    w(table.CtmTable, "load", "bdm.table", entries)
    w(bdm, "enumerate_machines", "bdm.machines")
    enumerated = lambda a, k, r: {"machines": a[3] - a[2], "halting": r[1]}  # noqa: E731
    w(machines, "enumerate_range", "bdm.machines", enumerated)
    w(bdm, "enumerate_range", "bdm.machines", enumerated)


def counts_digest(counts) -> str:
    text = "".join(f"{s}\t{n}\n" for s, n in sorted(counts.items()))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def ctm_passes(bdm, marks: Marks, deadline: float, bounds: list[int]) -> dict:
    """Passes over the chunks until the next would end after `deadline`;
    one at least. The process may move to another processor between
    chunks."""
    chunks = list(zip(bounds[::2], bounds[1::2]))
    chunk_s, passes = [], []
    while True:
        total: Counter = Counter()
        halting = 0
        times = []
        for start, stop in chunks:
            t = time.perf_counter()
            counts, h = bdm.enumerate_range(STATES, STEP_BOUND, start, stop)
            times.append(time.perf_counter() - t)
            marks.move()
            total.update(counts)
            halting += h
        chunk_s.append(times)
        passes.append({"halting": halting, "digest": counts_digest(total)})
        if time.perf_counter() + sum(times) > deadline:
            return {"chunk_s": chunk_s, "passes": passes}


def main(argv: list[str]) -> int:
    marks = Marks()
    mode, result_path, trace = argv[0], argv[1], argv[2] == "1"
    t0 = time.perf_counter()
    import marketcomplexity.cli as cli

    out = {"import_s": time.perf_counter() - t0}
    tracer = Tracer() if trace else None
    if tracer is not None:
        install(tracer)
    if mode == "report":
        if tracer is None:
            install(marks)
        rc = cli.main(argv[3:])
    else:
        from marketcomplexity import bdm

        out.update(ctm_passes(bdm, marks, marks.t[0] + float(argv[3]), [int(x) for x in argv[4:]]))
        rc = 0
    marks.t.append(time.perf_counter())
    out["marks"] = marks.t
    if tracer is not None:
        out.update(spans=tracer.spans, counts=tracer.counts)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(out, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
