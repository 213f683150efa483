"""Benchmark of the marketcomplexity package, end to end and per module.

    python3 perfbench/run.py --workload report --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from
`src/`. Each workload generates its inputs from the seed, then, in each
fifth of `--seconds`, sets up with empty caches and runs timed work until
that fifth ends. It checks every output against the reference and prints
one JSON object as its last line. With `--trace 1` it alternates untraced
and traced processes and reports the per-module self times instead. See
README.md in this directory.

Times are sums of the fastest times of short segments over the run: on a
shared 2-core virtual machine the processor slowed by up to a factor of
two for a fraction of a second to a minute at a time, and only the fastest
time of short pieces of work repeated from one run to the next.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 20140717
SETUPS = 5
# every process must end before the whole run's 180 s limit
DEADLINE_S = 170.0

REPORT_MARKETS, REPORT_POINTS, REPORT_PAIRS = 12, 5000, 6
REPORT_START = date(1960, 1, 1)
SMOKE_POINTS = 400
CTM_STATES, CTM_SHARDS, CTM_CHUNKS, CTM_CHUNK = 3, 8, 64, 1000
SMOKE_CTM_CHUNK = 40

LAYERS = [
    "cli", "ingest", "analysis", "encode", "lzw", "entropy", "returns",
    "fractal", "align", "bdm.decompose", "bdm.table", "bdm.machines",
]
# counter name -> unit, as reported by the traced run
COUNTERS = {
    "cli.bytes_written": "bytes",
    "ingest.points": "count",
    "encode.bytes": "bytes",
    "lzw.bytes_in": "bytes",
    "align.points": "count",
    "bdm.decompose.windows": "count",
    "bdm.table.entries": "count",
    "bdm.machines.machines": "count",
    "bdm.machines.halting": "count",
}
WORKLOADS = ["report", "ctm_shard"]


# ---------------------------------------------------------------------------
# processes


@dataclass
class Proc:
    rc: int
    wall_s: float  # the whole process, from the parent
    rss_mb: float
    stderr: str
    data: dict  # what the child wrote; {} if it wrote nothing
    marks: list[float]  # parent start, the child's marks, parent end


class Runner:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failures: list[str] = []

    def env(self, cache: Path) -> dict:
        env = dict(os.environ)
        env.update(
            PYTHONPATH=str(SRC),
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            NUMBA_NUM_THREADS="1",
            XDG_CACHE_HOME=str(cache / "xdg"),
            NUMBA_CACHE_DIR=str(cache / "numba"),
        )
        return env

    def run(self, args: list[str], cache: Path) -> Proc:
        """Run one `child.py` process to completion; wall time and peak RSS
        come from the parent, so they include interpreter start and exit.
        The child writes its result to `result.json`."""
        log, res = self.workdir / "proc", self.workdir / "result.json"
        res.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "child.py"), args[0], res.name, *args[1:]]
        with open(log.with_suffix(".out"), "wb") as so, open(log.with_suffix(".err"), "wb") as se:
            t0 = time.perf_counter()
            p = subprocess.Popen(argv, cwd=self.workdir, env=self.env(cache),
                                 stdin=subprocess.DEVNULL, stdout=so, stderr=se)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), p.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(p.pid, 0)
            except BaseException:  # stopped by a signal: end the child too
                p.kill()
                p.wait()
                raise
            finally:
                timer.cancel()
            t1 = time.perf_counter()
        p.returncode = os.waitstatus_to_exitcode(status)
        stderr = log.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
        data = json.loads(res.read_text(encoding="utf-8")) if res.exists() else {}
        return Proc(p.returncode, t1 - t0, usage.ru_maxrss / 1024.0, stderr, data,
                    [t0, *data.get("marks", []), t1])

    def check(self, what: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{what}: {reason}")


def fastest_segments(procs: list[Proc]) -> float:
    """Sum over the segments between consecutive marks of each segment's
    fastest time in any of `procs`. Only processes with the most common
    number of marks count, so that segment k is the same work in each."""
    n = statistics.mode(len(p.marks) for p in procs)
    segments = [[b - a for a, b in zip(p.marks, p.marks[1:])] for p in procs if len(p.marks) == n]
    return sum(min(seg) for seg in zip(*segments))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def drop_bytecode() -> None:
    """Remove the package's compiled bytecode so a set-up run starts cold."""
    for d in SRC.rglob("__pycache__"):
        shutil.rmtree(d, ignore_errors=True)


def traceback_in(proc: Proc) -> str | None:
    if "Traceback" in proc.stderr or not proc.data:
        return f"exit code {proc.rc}, traceback or no result"
    return None


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Samples:
    setups: list[Proc] = field(default_factory=list)
    timed: list[Proc] = field(default_factory=list)
    untraced: list[Proc] = field(default_factory=list)
    traced: list[Proc] = field(default_factory=list)


class ReportWorkload:
    """`marketcomplexity report` over generated markets, one process per
    report. Outputs must match the digests recorded for the default seed;
    on other seeds, the first run's outputs are the reference."""

    def __init__(self, runner: Runner, reference: dict, recorded: bool, points: int):
        self.r, self.reference, self.points = runner, reference, points
        self.files: dict | None = reference["files"] if recorded else None
        self.recorded = recorded
        self.out = runner.workdir / "out"

    def prepare(self, seed: int) -> dict:
        sizes, ids, pairs = inputs.write_report_inputs(
            self.r.workdir, seed, REPORT_MARKETS, self.points, REPORT_START, REPORT_PAIRS)
        self.expected = ({"report.csv", "report.txt"} | {f"{i}_hist.csv" for i in ids}
                         | {f"{a}__{b}_aligned.csv" for a, b in pairs})
        digest = hashlib.sha256((self.r.workdir / "run.cfg").read_bytes())
        for p in sorted((self.r.workdir / "inputs").iterdir()):
            digest.update(p.read_bytes())
        sizes["inputs_sha256"] = digest.hexdigest()
        if self.recorded and sizes["inputs_sha256"] != self.reference["inputs_sha256"]:
            self.r.check("inputs", "generated inputs differ from the recorded ones")
        return sizes

    def verify(self, proc: Proc) -> str | None:
        if proc.rc != self.reference["exit_code"]:
            return f"exit code {proc.rc}, reference {self.reference['exit_code']}"
        if reason := traceback_in(proc):
            return reason
        names = {p.name for p in self.out.iterdir()} if self.out.is_dir() else set()
        if names != self.expected:
            return f"{len(names)} output files, expected {len(self.expected)}"
        digests = {n: sha256((self.out / n).read_bytes()) for n in names}
        if self.files is None:
            self.files = digests
        bad = sorted(n for n in names if digests[n] != self.files.get(n))
        return f"{len(bad)} output files differ, first {bad[0]}" if bad else None

    def once(self, cache: Path, trace: bool, what: str = "report") -> Proc:
        shutil.rmtree(self.out, ignore_errors=True)
        proc = self.r.run(["report", str(int(trace)), "report", "--config", "run.cfg"], cache)
        self.r.check(what, self.verify(proc))
        if trace and proc.data:
            written = sum(p.stat().st_size for p in self.out.iterdir()) if self.out.is_dir() else 0
            proc.data["counts"]["cli"] = {"bytes_written": written}
        return proc

    def setup(self, cache: Path) -> Proc:
        drop_bytecode()
        return self.once(cache, False, "cold report")

    def timed(self, cache: Path, until: float) -> list[Proc]:
        """Processes until the next would end after `until`; one at least."""
        procs = [self.once(cache, False)]
        while time.perf_counter() + procs[-1].wall_s <= until:
            procs.append(self.once(cache, False))
        return procs

    def fastest(self, s: Samples) -> tuple[float, list[float]]:
        """`wall_s` and the wall time of each timed process. The cold
        set-ups run the same report, so their segments count too: where a
        set-up compiles bytecode, the warm processes are faster."""
        return fastest_segments(s.setups + s.timed), [p.wall_s for p in s.timed]

    def items(self, sizes: dict) -> int:
        return sizes["points"]


class CtmWorkload:
    """Machines of shard `seed % 8` of the 3-state machines, in 64 chunks
    of 1 000 spread over the whole index range: chunk i starts at the
    (8i + shard)-th of 512 equal strata. In each slice of the run one
    process imports the package and makes passes over the chunks. Every
    pass must give the halting count and counts digest recorded for the
    shard."""

    def __init__(self, runner: Runner, shards: dict | None, chunk: int):
        self.r = runner
        self.shards = shards  # recorded halting count and digest per shard
        self.chunk = chunk

    def prepare(self, seed: int) -> dict:
        self.shard = seed % CTM_SHARDS
        total = (4 * CTM_STATES + 2) ** (2 * CTM_STATES)
        strata = CTM_SHARDS * CTM_CHUNKS
        starts = [total * (CTM_SHARDS * i + self.shard) // strata for i in range(CTM_CHUNKS)]
        self.bounds = [str(x) for a in starts for x in (a, a + self.chunk)]
        self.machines = CTM_CHUNKS * self.chunk
        self.expect = self.shards[str(self.shard)] if self.shards else None
        return {"shard": self.shard, "chunks": CTM_CHUNKS, "machines": self.machines}

    def verify(self, proc: Proc) -> str | None:
        if proc.rc != 0 or (reason := traceback_in(proc)):
            return reason or f"exit code {proc.rc}"
        return None

    def passes(self, cache: Path, trace: bool, seconds: float, what: str) -> Proc:
        proc = self.r.run(["ctm", str(int(trace)), repr(seconds), *self.bounds], cache)
        reason = self.verify(proc)
        if reason is not None:
            self.r.check(what, reason)
            return proc
        for got in proc.data["passes"]:
            if self.expect is None:
                self.expect = got
            self.r.check(what, None if got == self.expect else
                         f"halting count {got['halting']} or counts digest differs from the reference")
        return proc

    def once(self, cache: Path, trace: bool) -> Proc:
        return self.passes(cache, trace, 0.0, "traced ctm" if trace else "ctm")

    def setup(self, cache: Path) -> Proc:
        """A cold process that imports the package and enumerates the first
        chunk, so that compilation or cache filling shows here."""
        drop_bytecode()
        proc = self.r.run(["ctm", "0", "0", *self.bounds[:2]], cache)
        self.r.check("cold ctm", self.verify(proc))
        return proc

    def timed(self, cache: Path, until: float) -> list[Proc]:
        """One process, passing over the chunks until about `until`."""
        return [self.passes(cache, False, max(until - time.perf_counter(), 0.0), "ctm")]

    def fastest(self, s: Samples) -> tuple[float, list[float]]:
        """`wall_s`, the sum of each chunk's least time over all passes,
        and the time of each pass."""
        procs = s.timed
        chunk_s = [t for p in procs for t in p.data.get("chunk_s", [])]
        if not chunk_s:  # every process failed; the run reports failure
            return min(p.wall_s for p in procs), [p.wall_s for p in procs]
        return sum(min(chunk) for chunk in zip(*chunk_s)), [sum(t) for t in chunk_s]

    def items(self, sizes: dict) -> int:
        return self.machines


def make_workload(name: str, seed: int, smoke: bool):
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    runner = Runner(fresh_dir(WORK / (f"smoke-{name}" if smoke else name)))
    if name == "ctm_shard":
        wl = CtmWorkload(runner, None if smoke else reference[name]["shards"],
                         SMOKE_CTM_CHUNK if smoke else CTM_CHUNK)
    else:
        wl = ReportWorkload(runner, reference[name], recorded=seed == DEFAULT_SEED and not smoke,
                            points=SMOKE_POINTS if smoke else REPORT_POINTS)
    return wl, wl.prepare(seed)


# ---------------------------------------------------------------------------
# measurement


def measure(wl, seconds: float, trace: bool, setups: int) -> Samples:
    """Cut `seconds` into `setups` equal slices. Each slice sets up with
    empty caches, then runs timed work with the caches that set-up filled
    until the slice ends, so that set-ups and timed work sample the whole
    run alike. Traced, it sets up once, then alternates one untraced and
    one traced process until `seconds` have passed."""
    s = Samples()
    start = time.perf_counter()
    for k in range(1 if trace else setups):
        cache = fresh_dir(wl.r.workdir / f"cache{k}")
        s.setups.append(wl.setup(cache))
        if not trace:
            s.timed += wl.timed(cache, start + seconds * (k + 1) / setups)
    while trace and (not s.traced or time.perf_counter() - start < seconds):
        s.untraced.append(wl.once(cache, False))
        s.traced.append(wl.once(cache, True))
    return s


def layer_table(wall: float, data: dict) -> dict[str, float]:
    """Per-layer calls, self time and counts of one traced process. Self
    time is a span's duration minus its direct children's; the time no
    span covers (interpreter start, tracer install, exit) is
    `process.self_s`, so all self times add up to the traced wall."""
    spans = data.get("spans", [])
    child_s = [0.0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    m: dict[str, float] = {"cli.import_s": data.get("import_s", 0.0)}
    for layer in LAYERS:
        m[f"{layer}.calls"] = 0
        m[f"{layer}.self_s"] = 0.0
    for (layer, t0, t1, _), c in zip(spans, child_s):
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_s"] += (t1 - t0) - c
    for name in COUNTERS:
        layer, _, counter = name.rpartition(".")
        m[name] = data.get("counts", {}).get(layer, {}).get(counter, 0)
    machines = m["bdm.machines.machines"]
    m["bdm.machines.halting_ratio"] = m["bdm.machines.halting"] / machines if machines else 0.0
    m["process.self_s"] = wall - m["cli.import_s"] - sum(m[f"{la}.self_s"] for la in LAYERS)
    return m


def per_layer_units() -> dict[str, str]:
    units = {"cli.import_s": "s"}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(COUNTERS)
    units.update({"bdm.machines.halting_ratio": "ratio", "process.self_s": "s",
                  "wall.traced_s": "s", "wall.untraced_s": "s", "trace.overhead_s": "s"})
    return units


def print_layers(m: dict[str, float], wall: float) -> None:
    print(f"{'layer':<16}{'self_s':>10}{'share':>9}{'calls':>8}")
    rows = [("cli.import", m["cli.import_s"], "")]
    rows += [(layer, m[f"{layer}.self_s"], m[f"{layer}.calls"]) for layer in LAYERS]
    rows.append(("process", m["process.self_s"], ""))
    for layer, self_s, calls in rows:
        print(f"{layer:<16}{self_s:>10.4f}{100 * self_s / wall:>8.1f}%{calls:>8}")
    print(f"{'total':<16}{sum(r[1] for r in rows):>10.4f}{'100.0%':>9}  (the median traced process)")
    over = m["trace.overhead_s"]
    print(f"median wall: traced {m['wall.traced_s']:.4f} s, untraced {m['wall.untraced_s']:.4f} s,"
          f" tracing overhead {over:.4f} s ({100 * over / m['wall.untraced_s']:.1f}%)")


def describe(name: str, values: list[float]) -> str:
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return (f"{name}: {len(values)} samples, median {q[1]:.4f} s, quartiles {q[0]:.4f}..{q[2]:.4f} s,"
            f" all {', '.join(f'{v:.4f}' for v in values)}")


def environment(seed: int) -> dict:
    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        src.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "numba": has_numba,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    wl, sizes = make_workload(name, seed, smoke)
    s = measure(wl, seconds, trace, 1 if smoke else SETUPS)
    runner = wl.r
    print(f"perfbench {name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("env: " + json.dumps(environment(seed), sort_keys=True))
    print("inputs: " + json.dumps(sizes, sort_keys=True))
    for f in runner.failures:
        print(f"FAILED {f}")
    failed = len(runner.failures)
    print(f"failed_ratio = {failed / runner.attempted:.4f} ({failed} failed of {runner.attempted} checks)")
    if trace:
        walls = [p.wall_s for p in s.traced]
        mid = sorted(range(len(walls)), key=walls.__getitem__)[(len(walls) - 1) // 2]
        m = layer_table(walls[mid], s.traced[mid].data)
        m["wall.traced_s"] = statistics.median(walls)
        m["wall.untraced_s"] = statistics.median(p.wall_s for p in s.untraced)
        m["trace.overhead_s"] = m["wall.traced_s"] - m["wall.untraced_s"]
        print_layers(m, walls[mid])
        metrics = {k: (m[k], u) for k, u in per_layer_units().items()}
    else:
        (wall, samples), setup = wl.fastest(s), fastest_segments(s.setups)
        items = wl.items(sizes)
        metrics = {
            "wall_s": (wall, "s"),
            "items_per_s": (items / wall, "1/s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (statistics.median(p.rss_mb for p in s.timed), "MiB"),
        }
        print(describe("timed " + ("passes" if name == "ctm_shard" else "processes"), samples))
        print(describe("set-ups", [p.wall_s for p in s.setups]))
        what = "machines_per_s" if name == "ctm_shard" else "points_per_s"
        print(f"{what} = {items / wall:.1f} 1/s ({items} / wall_s)")
    for k, (v, u) in metrics.items():
        print(f"{k} = {v!r} {u}")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return result


def smoke() -> int:
    """Every workload once at tiny sizes, untraced and traced: each prints
    exactly the metrics BENCHMARK.json names, with their units, and the
    output checks count a deliberately altered output as failed."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            res = run_workload(name, DEFAULT_SEED, 0, trace, smoke=True)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={int(trace)}: metrics or units differ from "
                                f"BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
            if not res["correct"]:
                problems.append(f"{name} trace={int(trace)}: an output check failed")

    wl, _ = make_workload("report", DEFAULT_SEED, smoke=True)
    proc = wl.once(fresh_dir(wl.r.workdir / "cache"), False)
    with open(wl.out / "report.csv", "ab") as f:
        f.write(b"\n")
    if wl.verify(proc) is None:
        problems.append("an altered report.csv passed the output check")
    ctm, _ = make_workload("ctm_shard", DEFAULT_SEED, smoke=True)
    ctm.once(fresh_dir(ctm.r.workdir / "cache"), False)
    ctm.expect = dict(ctm.expect, halting=ctm.expect["halting"] + 1)
    ctm.once(fresh_dir(ctm.r.workdir / "cache"), False)
    if not ctm.r.failures:
        problems.append("an altered halting count passed the output check")

    for p in problems:
        print(f"smoke: {p}")
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload once")
    args = parser.parse_args(argv)
    if not (SRC / "marketcomplexity" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
