#!/usr/bin/env python3
"""Write golden.json: each job's [verdict, |solution|, passes, peak_words].

    python3 perfbench/golden.py

Runs every job of every workload once for each of SEEDS, checks each answer
independently and the twins against each other, and requires all seeds to
give the same rows (gen.py explains why they do).  The benchmark compares
every round with this file.  A change to a row is a behaviour change of the
program, not a speed-up.
"""

from __future__ import annotations

import json
import sys

from run import HERE, fail, import_program

SEEDS = range(10)


def rows_for(vc, name: str, seed: int) -> dict:
    import workloads as wl
    from gen import planted, vcs_text

    fams = wl.families()
    make_stream, AL = vc["streams"].make_stream, vc["streams"].AL
    rows = {}
    for spec in wl.WORKLOADS[name]:
        p = planted(spec.shape, seed)
        inst = vc["instances"].parse_instance(vcs_text(p, f"golden seed={seed}"))
        outcomes = {job: wl.JOBS[job].run(make_stream(inst.graph, AL), inst,
                                          vc["meters"].MemoryMeter(), fams)
                    for job in spec.jobs + spec.check_jobs}
        failures = wl.check_instance(p, outcomes, fams)
        if failures:
            fail(f"{name}/{spec.name} seed {seed}: {failures}")
        for job, out in outcomes.items():
            rows[f"{spec.name}/{job}"] = wl.summarize(out)[0]
    return rows


def main() -> int:
    vc = import_program()
    import workloads as wl

    out = {"seeds_checked": f"{SEEDS[0]}-{SEEDS[-1]}",
           "row": ["verdict", "size", "passes", "peak_words"], "workloads": {}}
    for name in wl.WORKLOADS:
        first = None
        for seed in SEEDS:
            rows = rows_for(vc, name, seed)
            if first is None:
                first = rows
            elif rows != first:
                fail(f"{name}: seed {seed} rows differ from seed {SEEDS[0]}")
            print(f"{name} seed {seed}: ok", file=sys.stderr, flush=True)
        out["workloads"][name] = first
    (HERE / "golden.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
