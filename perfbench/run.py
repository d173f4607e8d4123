#!/usr/bin/env python3
"""vcstream benchmark: one workload, one seed, a closed loop of rounds.

    python3 perfbench/run.py --workload scan-large --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the program is imported from `src/`.  The
seed makes the `.vcs` inputs (see gen.py); nothing else reaches the program.
A round loads every instance of the workload (`load_instance`, then
`make_stream(AL)`) and runs its jobs one after another in this one process;
the next round starts when the last verdict is in.  One untimed warm-up round
first checks every outcome independently (workloads.py).  Every round's
outcomes must equal golden.json.  Every time is scaled to a host on which
speed.py's fixed reference work takes 15 ms, timed around each round.

`--trace 0` measures the end-to-end metrics.  `--trace 1` spends the first
third of the time on untraced rounds, then wraps the layers (tracer.py) and
reports per-layer means per traced round; their self times add up to
`trace.wall_s`, and `trace.overhead_s` is the traced minus the untraced mean
round.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracer
from gen import planted, vcs_text
from speed import REF_S, reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SPAN_CAP = 200_000
JOB_LAYERS = ("solve_oct", "solve_cvd", "solve_hfree", "solve_oracle",
              "kernel_adjacency", "kernel_lowrank")


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program() -> dict:
    src = ROOT / "src"
    if not (src / "vcstream" / "__init__.py").is_file():
        fail(f"no vcstream sources under {src}")
    sys.path.insert(0, str(src))
    import vcstream
    from vcstream import (graph, instances, kernel_lowrank, meters, properties,
                          solve_cvd, solve_hfree, solve_oct, solve_oracle, streams)

    if Path(vcstream.__file__).resolve().parent != (src / "vcstream").resolve():
        fail(f"imported vcstream from {vcstream.__file__}, not from {src}")
    return {m.__name__.rsplit(".", 1)[1]: m for m in (
        graph, instances, kernel_lowrank, meters, properties,
        solve_cvd, solve_hfree, solve_oct, solve_oracle, streams)}


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it."""
    s = sorted(values)
    if len(s) < 11:
        return s[-1], f"max of {len(s)} rounds (fewer than 11)"
    return s[-11], f"p{100 * (len(s) - 10) / len(s):.0f} of {len(s)} rounds"


class Bench:
    def __init__(self, vc, workload, seed: int):
        import workloads  # imports vcstream, so only after import_program()

        self.vc, self.wl = vc, workloads
        self.specs = workloads.WORKLOADS[workload]
        golden = json.loads((HERE / "golden.json").read_text())
        self.golden = golden["workloads"].get(workload)
        if self.golden is None:
            fail(f"golden.json has no rows for {workload}")
        self.fams = workloads.families()
        self.tr = tracer.Tracer(SPAN_CAP)
        self.attempted = self.failed = 0
        self.notes: list[str] = []
        self.solutions: dict = {}
        self.rows: dict = {}

        inputs = WORK / f"{workload}-seed{seed}"
        inputs.mkdir(parents=True, exist_ok=True)
        self.planted, self.paths = {}, {}
        for spec in self.specs:
            self.planted[spec.name] = planted(spec.shape, seed)
            path = inputs / f"{spec.name}.vcs"
            path.write_text(vcs_text(self.planted[spec.name],
                                     f"perfbench {workload}/{spec.name} seed={seed}"))
            self.paths[spec.name] = path

    # -- one round ---------------------------------------------------------

    def round(self) -> dict:
        """Load every instance and run its jobs; returns timings and outcomes."""
        load_instance = self.vc["instances"].load_instance
        make_stream, AL = self.vc["streams"].make_stream, self.vc["streams"].AL
        MemoryMeter = self.vc["meters"].MemoryMeter
        tr, jobs = self.tr, self.wl.JOBS
        outcomes, job_s, setup = {}, {}, 0.0
        tr.events_per_scan.clear()
        start = time.perf_counter()
        tr.open(tracer.ROUND)
        for spec in self.specs:
            t0 = time.perf_counter()
            tr.open(tracer.PARSE)
            inst = load_instance(self.paths[spec.name])
            tr.close()
            tr.open(tracer.MAKE_STREAM)
            handle = make_stream(inst.graph, AL)
            tr.close()
            setup += time.perf_counter() - t0
            tr.events_per_scan[id(inst.graph)] = self.events_per_pass[spec.name]
            for name in spec.jobs:
                job = jobs[name]
                tr.start_job(f"{spec.name}/{name}", job.layer)
                t0 = time.perf_counter()
                tr.open(job.layer)
                try:
                    out = job.run(handle, inst, MemoryMeter(), self.fams)
                except Exception as exc:  # a raising job is a failed job; keep going
                    out = exc
                finally:
                    tr.close()
                job_s[spec.name, name] = time.perf_counter() - t0
                outcomes[spec.name, name] = out
        tr.close()
        wall = time.perf_counter() - start
        return {"wall": wall, "setup": setup, "solve": sum(job_s.values()),
                "job_s": job_s, "outcomes": outcomes}

    def score(self, rnd: dict) -> None:
        """Compare each outcome with golden.json and with the warm-up round."""
        passes = peak = events = 0
        for (inst, job), out in rnd["outcomes"].items():
            if self.accept(inst, job, out):
                row, _ = self.wl.summarize(out)
                passes += row[2]
                peak += row[3]
                events += row[2] * self.events_per_pass[inst]
        rnd.update(passes=passes, peak=peak, events=events)
        del rnd["outcomes"]

    def accept(self, inst: str, job: str, out) -> bool:
        self.attempted += 1
        key = f"{inst}/{job}"
        if isinstance(out, Exception):
            self.reject(key, "raised " + "".join(
                traceback.format_exception_only(type(out), out)).strip())
            return False
        row, solution = self.wl.summarize(out)
        self.rows[key] = row
        want = self.golden.get(key)
        if row != want:
            self.reject(key, f"outcome {row} != golden {want}")
            return False
        first = self.solutions.setdefault(key, tuple(solution))
        if tuple(solution) != first:
            self.reject(key, "solution differs from the warm-up round")
            return False
        return True

    def reject(self, key: str, why: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(f"FAILED {key}: {why}")

    # -- untimed checks ----------------------------------------------------

    def warm_up_and_check(self) -> None:
        """Count each instance's events per pass, run one untimed round and
        the check-only twins, and check every answer independently."""
        load_instance = self.vc["instances"].load_instance
        make_stream, AL = self.vc["streams"].make_stream, self.vc["streams"].AL
        MemoryMeter = self.vc["meters"].MemoryMeter
        self.events_per_pass = {}
        extra = {}
        for spec in self.specs:
            inst = load_instance(self.paths[spec.name])
            handle = make_stream(inst.graph, AL)
            self.events_per_pass[spec.name] = sum(1 for _ in handle.events())
            for name in spec.check_jobs:
                try:
                    extra[spec.name, name] = self.wl.JOBS[name].run(
                        handle, inst, MemoryMeter(), self.fams)
                except Exception as exc:  # a raising job is a failed job; keep going
                    extra[spec.name, name] = exc
        rnd = self.round()
        accepted = {spec.name: {} for spec in self.specs}
        for (inst, job), out in {**rnd["outcomes"], **extra}.items():
            if self.accept(inst, job, out):
                accepted[inst][job] = out
        for inst, outcomes in accepted.items():
            for failure in self.wl.check_instance(self.planted[inst], outcomes, self.fams):
                self.reject(inst, failure)

    # -- measured loops ----------------------------------------------------

    def loop(self, until: float, traced: bool) -> list[dict]:
        """Rounds until `until`.  Each gets `scale`, which turns its seconds
        into seconds on a host where speed.reference_s() takes REF_S."""
        rounds = []
        before = reference_s()
        while True:
            gc.collect()
            self.tr.on = traced
            rnd = self.round()
            self.tr.on = False
            after = reference_s()
            rnd["scale"] = REF_S / ((before + after) / 2)
            before = after
            if traced:
                self.tr.calibrate_scan_floor()
            self.score(rnd)
            rounds.append(rnd)
            if time.perf_counter() >= until:
                return rounds

    def trade_off_table(self, rounds: list[dict]) -> None:
        """The paper's pass/memory trade-off, with this program's time beside it."""
        print(f"{'job':<20} {'n':>6} {'K':>2} {'verdict':>7} {'|sol|':>5} "
              f"{'passes':>7} {'peak_words':>10} {'solve_s':>9}")
        for spec in self.specs:
            for name in spec.jobs:
                key = f"{spec.name}/{name}"
                row = self.rows.get(key, ["?", 0, 0, 0])
                t = statistics.median(r["job_s"][spec.name, name] * r["scale"]
                                      for r in rounds)
                print(f"{key:<20} {spec.shape.n:>6} {spec.shape.k:>2} {row[0]:>7} "
                      f"{row[1]:>5} {row[2]:>7} {row[3]:>10} {t:>9.4f}")


def end_to_end(b: Bench, rounds: list[dict]) -> dict:
    walls = [r["wall"] * r["scale"] for r in rounds]
    tail_s, tail_note = tail(walls)
    print(f"rounds={len(rounds)} wall_s.tail={tail_note}")
    print(f"unscaled wall_s={statistics.median(r['wall'] for r in rounds):.4f} s; "
          f"reference took {1000 * REF_S / statistics.median(r['scale'] for r in rounds):.2f} "
          f"ms for {1000 * REF_S:.0f} ms nominal")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "wall_s": (statistics.median(walls), "s"),
        "wall_s.tail": (tail_s, "s"),
        "setup_s": (statistics.median(r["setup"] * r["scale"] for r in rounds), "s"),
        "solve_s": (statistics.median(r["solve"] * r["scale"] for r in rounds), "s"),
        "events_per_s": (statistics.median(r["events"] / (r["solve"] * r["scale"])
                                           for r in rounds), "1/s"),
        "passes": (max(r["passes"] for r in rounds), "count"),
        "peak_words": (max(r["peak"] for r in rounds), "words"),
        "rss_peak_mb": (rss_mb, "MB"),
        "jobs_ok": ((b.attempted - b.failed) / b.attempted, "ratio"),
    }


def per_layer(b: Bench, untraced: list[dict], traced: list[dict]) -> dict:
    """Means per traced round; seconds are scaled by the traced rounds'
    mean `scale`, and the untraced mean by its own."""
    tr, n = b.tr, len(traced)
    c = tr.counts
    scale = statistics.fmean(r["scale"] for r in traced)
    self_s = {name: total / n * scale for name, total in tr.self_s.items()}
    wall = statistics.fmean(r["wall"] for r in traced) * scale
    base = statistics.fmean(r["wall"] * r["scale"] for r in untraced)
    m = {
        "bench.self_s": (self_s.get(tracer.ROUND, 0.0), "s"),
        "instances.parse_s": (self_s.get(tracer.PARSE, 0.0), "s"),
        "graph.build_s": (self_s.get(tracer.BUILD, 0.0), "s"),
        "streams.make_stream_s": (self_s.get(tracer.MAKE_STREAM, 0.0), "s"),
        "streams.pass_s": (self_s.get(tracer.PASS, 0.0), "s"),
        "streams.scan_floor_s": (sum(tr.floor_s.values()) / n * scale, "s"),
        "streams.events": (c["streams.events"] / n, "count"),
        "streams.passes": (c["streams.passes"] / n, "count"),
        "streams.substream_passes": (c["streams.substream_passes"] / n, "count"),
        "streams.scans_per_pass": (c["streams.scans"] / max(1, c["streams.passes"]), "ratio"),
    }
    for layer in JOB_LAYERS:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
        m[f"{layer}.consumer_s"] = ((tr.pass_s[layer] - tr.floor_s[layer]) / n * scale, "s")
    m.update({
        "kernel_lowrank.independent_ratio": (
            c["kernel_lowrank.independent"] / max(1, c["kernel_lowrank.inserts"]), "ratio"),
        "meters.allocate_calls": (c["meters.allocate_calls"] / n, "count"),
        "enumeration.cursor_steps": (c["enumeration.cursor_steps"] / n, "count"),
        "properties.oracle_calls": (c["properties.oracle_calls"] / n, "count"),
        "properties.oracle_s": (self_s.get(tracer.ORACLE, 0.0), "s"),
        "properties.oracle_hit_ratio": (
            c["properties.oracle_hits"] / max(1, c["properties.oracle_calls"]), "ratio"),
        "trace.wall_s": (wall, "s"),
        "trace.self_sum_s": (sum(self_s.values()), "s"),
        "trace.untraced_wall_s": (base, "s"),
        "trace.overhead_s": (wall - base, "s"),
    })
    print(f"traced rounds={n} untraced rounds={len(untraced)} "
          f"spans kept={len(tr.spans['start'])} dropped={tr.dropped}")
    print(f"self times sum to {m['trace.self_sum_s'][0]:.6f} s per round; traced round "
          f"{wall:.6f} s; untraced {base:.6f} s; tracing overhead {wall - base:+.6f} s")
    for name, (value, unit) in m.items():
        print(f"  {name:<36} {value:>14.6f} {unit}")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    vc = import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    start = time.perf_counter()
    b = Bench(vc, args.workload, args.seed)
    b.warm_up_and_check()
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        untraced = b.loop(time.perf_counter() + args.seconds / 3, traced=False)
        tracer.install(b.tr, vc)
        traced = b.loop(deadline, traced=True)
        b.trade_off_table(traced)
        metrics = per_layer(b, untraced, traced)
        b.tr.write(WORK / f"trace-{args.workload}.txt")  # the last traced run only
    else:
        rounds = b.loop(deadline, traced=False)
        b.trade_off_table(rounds)
        metrics = end_to_end(b, rounds)
    for note in b.notes:
        print(note)
    print(f"workload={args.workload} seed={args.seed} total_s={time.perf_counter() - start:.1f}")
    for name, (value, unit) in metrics.items():
        if not math.isfinite(value):
            fail(f"metric {name} is {value}")
    print(json.dumps({
        "correct": b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
