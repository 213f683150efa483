"""Record the reference outputs that `run.py` checks every run against.

    python3 perfbench/record_reference.py

Runs `report` once on the default seed and one pass over the chunks
of each of the eight `ctm_shard` shards, and writes their exit codes and
output digests to `reference.json`. Run it only at a commit whose outputs
are known good: a later change to the package must reproduce these bytes
exactly.
"""

from __future__ import annotations

import json
import subprocess

import run


def record_report() -> dict:
    runner = run.Runner(run.fresh_dir(run.WORK / "record-report"))
    wl = run.ReportWorkload(runner, {"exit_code": 0}, recorded=False, points=run.REPORT_POINTS)
    sizes = wl.prepare(run.DEFAULT_SEED)
    proc = runner.run(["report", "0", "report", "--config", "run.cfg"],
                      run.fresh_dir(runner.workdir / "cache"))
    if "Traceback" in proc.stderr:
        raise SystemExit(f"report raised:\n{proc.stderr}")
    return {
        "inputs_sha256": sizes["inputs_sha256"],
        "exit_code": proc.rc,
        "files": {p.name: run.sha256(p.read_bytes()) for p in sorted(wl.out.iterdir())},
    }


def record_shards() -> dict:
    shards = {}
    runner = run.Runner(run.fresh_dir(run.WORK / "record-ctm"))
    cache = run.fresh_dir(runner.workdir / "cache")
    for shard in range(run.CTM_SHARDS):
        wl = run.CtmWorkload(runner, None, run.CTM_CHUNK)
        wl.prepare(shard)
        wl.once(cache, False)
        if runner.failures:
            raise SystemExit(f"shard {shard}: {runner.failures}")
        shards[str(shard)] = wl.expect
        print(f"shard {shard}: {wl.expect}", flush=True)
    return {"shards": shards}


def main() -> None:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                            text=True).stdout.strip()
    ref = {"commit": commit, "seed": run.DEFAULT_SEED}
    ref["report"] = record_report()
    print(f"report: exit {ref['report']['exit_code']}, "
          f"{len(ref['report']['files'])} files", flush=True)
    ref["ctm_shard"] = record_shards()
    run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
