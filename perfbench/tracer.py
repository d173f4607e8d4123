"""Run-time span tracer for the traced benchmark run.

`install` wraps public functions and methods of vcstream's layers from
outside the package (nothing under `src/` changes): `StreamHandle.run_pass`
and `StreamHandle.events`, `StreamOracle.answer`, `MemoryMeter.allocate`,
`Graph.__init__` during parsing, `basis_insert` and the enumeration cursor
functions as bound in each solver module.  The benchmark opens the outer
spans itself: the round, `load_instance`, `make_stream` and each job call.

A span is (name, start, end, parent, job).  Its self time is its duration
minus the time its child spans cover, so the self times of all spans in a
round add up to the round's duration.  Spans stay in memory, up to a cap,
and `write` saves them when the run ends.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict

ROUND = "bench"
PARSE = "instances.parse"
BUILD = "graph.build"
MAKE_STREAM = "streams.make_stream"
PASS = "streams.pass"
ORACLE = "properties.oracle"

CURSOR_FUNCS = ("subset_first", "subset_next", "multiset_first", "multiset_next",
                "permutation_first", "permutation_next")


class Tracer:
    def __init__(self, span_cap: int):
        self.on = False
        self.span_cap = span_cap
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.job_names: list[str] = []
        self.spans = {"id": array("q"), "name": array("i"), "start": array("d"),
                      "end": array("d"), "parent": array("q"), "job": array("i")}
        self.dropped = 0
        self._next_id = 0
        self._stack: list[list] = []  # [name, start, child seconds, span id]
        self.job = -1
        self.layer = ""
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.pass_s: defaultdict[str, float] = defaultdict(float)  # by job layer
        self.floor_s: defaultdict[str, float] = defaultdict(float)  # by job layer
        self.counts: Counter = Counter()
        self.events_per_scan: dict[int, int] = {}  # id(graph) -> events in one scan
        self._pass_handles: list = []  # (job layer, handle), one per traced pass

    def start_job(self, name: str, layer: str) -> None:
        if not self.on:
            return
        self.job = len(self.job_names)
        self.job_names.append(name)
        self.layer = layer

    def open(self, name: str) -> None:
        if self.on:
            self._stack.append([name, time.perf_counter(), 0.0, self._next_id])
            self._next_id += 1

    def close(self) -> float:
        if not self.on:
            return 0.0
        end = time.perf_counter()
        name, start, child, span_id = self._stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        parent = -1
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][3]
        if len(self.spans["start"]) < self.span_cap:
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self.names)
                self.names.append(name)
            s = self.spans
            s["id"].append(span_id)
            s["name"].append(name_id)
            s["start"].append(start)
            s["end"].append(end)
            s["parent"].append(parent)
            s["job"].append(self.job)
        else:
            self.dropped += 1
        return dur

    def in_span(self, name: str) -> bool:
        return bool(self._stack) and self._stack[-1][0] == name

    def calibrate_scan_floor(self) -> None:
        """Replay each traced pass's `events()` with an empty consumer; this
        is the scan floor that the `*.consumer_s` metrics subtract."""
        was_on, self.on = self.on, False
        for layer, handle in self._pass_handles:
            start = time.perf_counter()
            for _ in handle.events():
                pass
            self.floor_s[layer] += time.perf_counter() - start
        self._pass_handles.clear()
        self.on = was_on

    def write(self, path) -> None:
        """One line per span: name, start and end in microseconds from the
        first span, span id, parent id, job name."""
        s = self.spans
        t0 = s["start"][0] if len(s["start"]) else 0.0
        with open(path, "w") as fh:
            fh.write("# name start_us end_us id parent job\n")
            for i in range(len(s["start"])):
                job = s["job"][i]
                fh.write(f"{self.names[s['name'][i]]} {(s['start'][i] - t0) * 1e6:.1f} "
                         f"{(s['end'][i] - t0) * 1e6:.1f} {s['id'][i]} "
                         f"{s['parent'][i]} {self.job_names[job] if job >= 0 else '-'}\n")
            if self.dropped:
                fh.write(f"# {self.dropped} later spans not kept (cap {self.span_cap})\n")


def install(tr: Tracer, vc) -> None:
    """Wrap the layer entry points for the rest of the process.  `vc` maps
    module names to the imported vcstream modules."""
    handle_cls = vc["streams"].StreamHandle
    orig_run_pass = handle_cls.run_pass
    orig_events = handle_cls.events

    def run_pass(self, consumer):
        if not tr.on:
            return orig_run_pass(self, consumer)
        tr.counts["streams.passes"] += 1
        if type(self) is not handle_cls:
            tr.counts["streams.substream_passes"] += 1
        tr.open(PASS)
        try:
            return orig_run_pass(self, consumer)
        finally:
            tr.pass_s[tr.layer] += tr.close()
            tr._pass_handles.append((tr.layer, self))

    def events(self):
        if tr.on and type(self) is handle_cls:
            tr.counts["streams.scans"] += 1
            tr.counts["streams.events"] += tr.events_per_scan.get(id(self.source), 0)
        return orig_events(self)

    handle_cls.run_pass = run_pass
    handle_cls.events = events

    oracle_cls = vc["properties"].StreamOracle
    orig_answer = oracle_cls.answer
    membership = vc["properties"].ORACLE_MEMBERSHIP

    def answer(self, handle, meter=None):
        if not tr.on:
            return orig_answer(self, handle, meter)
        tr.counts["properties.oracle_calls"] += 1
        tr.open(ORACLE)
        try:
            result = orig_answer(self, handle, meter)
        finally:
            tr.close()
        # a hit is a found occurrence: a1 says "member", a2 says "not free"
        if result == (self.kind == membership):
            tr.counts["properties.oracle_hits"] += 1
        return result

    oracle_cls.answer = answer

    graph_cls = vc["graph"].Graph
    orig_init = graph_cls.__init__

    def init(self, n, edges=()):
        if not tr.in_span(PARSE):
            return orig_init(self, n, edges)
        tr.open(BUILD)
        try:
            orig_init(self, n, edges)
        finally:
            tr.close()

    graph_cls.__init__ = init

    meter_cls = vc["meters"].MemoryMeter
    orig_allocate = meter_cls.allocate

    def allocate(self, words=1):
        if tr.on:
            tr.counts["meters.allocate_calls"] += 1
        return orig_allocate(self, words)

    meter_cls.allocate = allocate

    lowrank = vc["kernel_lowrank"]
    orig_insert = lowrank.basis_insert

    def basis_insert(b, vec, v):
        result = orig_insert(b, vec, v)
        if tr.on:
            tr.counts["kernel_lowrank.inserts"] += 1
            tr.counts["kernel_lowrank.independent"] += result[1]
        return result

    lowrank.basis_insert = basis_insert

    def counted(fn):
        def wrapper(*args, **kwargs):
            if tr.on:
                tr.counts["enumeration.cursor_steps"] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod in ("solve_oct", "solve_cvd", "solve_hfree", "solve_oracle"):
        module = vc[mod]
        for name in CURSOR_FUNCS:
            if name in module.__dict__:
                setattr(module, name, counted(module.__dict__[name]))
