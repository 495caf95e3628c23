#!/usr/bin/env python3
"""Record the outputs the benchmark checks each seed against.

    python3 perfbench/record.py --seeds 0-49

Runs one operation of every workload group per seed (the warm-up pass for
estimate-long, which covers its five series) and merges the summaries into
perfbench/reference.json. Record again only when an output is meant to
change: a faster path must reproduce the recorded values.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import HERE, import_source

GROUPS = {"analyze": "analyze-cold", "mc-power-T2000": "mc-power-T2000",
          "estimate-long": "estimate-long"}


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-49,100")
    args = parser.parse_args()
    problem = import_source()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from tracing import NullTracer
    from workloads import WORKLOADS

    out = HERE / "reference.json"
    reference = json.loads(out.read_text()) if out.is_file() else {}
    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=HERE / "_work"))
    status = 0
    try:
        for group, name in GROUPS.items():
            workload = WORKLOADS[name]
            for seed in parse_seeds(args.seeds):
                state = workload.setup(seed, Path(tempfile.mkdtemp(dir=workdir)))
                results, _ = workload.warmup(state)
                results = results or [workload.op(state, 0, NullTracer())]
                failed = sum(r.failed for r in results)
                if failed:
                    print(f"{group} seed {seed}: {failed} failed items; not recorded",
                          file=sys.stderr)
                    status = 1
                    continue
                reference.setdefault(group, {})[str(seed)] = {r.key: r.summary
                                                              for r in results}
                out.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
                print(f"{group} seed {seed} recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
