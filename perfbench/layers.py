"""Span recording around the public layer functions of ``repro``.

The traced benchmark run wraps each layer's entry point from outside the
program (nothing under ``src/`` knows about it).  Every call becomes one
span ``(id, parent, name, start, end, thread)``; spans stay in memory and
are written out once, at the end of the run.  A span's *self time* is its
duration minus the durations of its direct children, so the self times of
all spans under one ``synthesize`` root add up to that root's wall time,
and the root's own self time is what no layer accounts for.
"""

from __future__ import annotations

import itertools
import json
import statistics
import subprocess
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

ROOT = "synthesize"

#: span name -> (module path, attribute path) of the wrapped callable.
#: Functions imported by name into ``repro.synthesis.engine`` are patched
#: where the engine looks them up.
WRAPPED = {
    "synthesis.independence": ("repro.synthesis.engine",
                               "check_instruction_independence"),
    "synthesis.instruction": ("repro.synthesis.engine",
                              "synthesize_instruction"),
    "synthesis.union": ("repro.synthesis.engine", "control_union"),
    "oyster.symeval": ("repro.oyster.symbolic", "SymbolicEvaluator.run"),
    "ila.compile": ("repro.ila.compiler",
                    "ConstraintCompiler.compile_instruction"),
    "smt.blast": ("repro.smt.bitblast", "BitBlaster.blast_bit"),
    "smt.encode": ("repro.smt.solver", "Solver.add"),
    "smt.check": ("repro.smt.solver", "Solver.check"),
    "sat.solve": ("repro.smt.sat.solver", "SatSolver.solve"),
}

_INCREMENTAL_WORKER = "repro.runtime.incremental_worker"


class SpanRecorder:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end,
                               threading.get_ident()))

    def wrap(self, name, fn):
        recorder = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            with recorder.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def wrap_outermost(self, name, fn):
        """Like :meth:`wrap`, but nested calls of ``name`` add no span."""
        recorder = self
        local = threading.local()

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(local, "active", False):
                return fn(*args, **kwargs)
            local.active = True
            try:
                with recorder.span(name):
                    return fn(*args, **kwargs)
            finally:
                local.active = False
        return wrapper

    def wrap_check(self, fn):
        """``Solver.check``: a span plus the conflicts the check spent."""
        recorder = self

        @wraps(fn)
        def wrapper(solver, *args, **kwargs):
            before = solver.conflicts
            try:
                with recorder.span("smt.check"):
                    return fn(solver, *args, **kwargs)
            finally:
                recorder.counts["sat.conflicts"] += solver.conflicts - before
        return wrapper

    def dump(self, path):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, name, start, end, tid in self.spans:
                out.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end, "tid": tid,
                }) + "\n")

    def summary(self):
        """Per-name call count, inclusive and self seconds, and durations."""
        child_time = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for span_id, _, name, start, end, _ in self.spans:
            entry = out.setdefault(name, {"calls": 0, "incl": 0.0,
                                          "self": 0.0, "durations": []})
            duration = end - start
            entry["calls"] += 1
            entry["incl"] += duration
            entry["self"] += duration - child_time[span_id]
            entry["durations"].append(duration)
        return {"spans": out, "counts": dict(self.counts)}


def _resolve(module_name, attr_path):
    import importlib

    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(recorder, root_sites=()):
    """Patch every layer entry point; returns a function undoing it.

    ``root_sites`` lists extra ``(module, attribute)`` places where
    ``synthesize`` itself should open a root span (the service runner's
    import of it); the synthesis worker opens its root span directly.
    """
    patches = []

    def patch(owner, attr, replacement):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    for name, (module_name, attr_path) in WRAPPED.items():
        owner, attr = _resolve(module_name, attr_path)
        original = owner.__dict__[attr]
        if name == "smt.check":
            replacement = recorder.wrap_check(original)
        elif name == "smt.blast":
            replacement = recorder.wrap_outermost(name, original)
        else:
            replacement = recorder.wrap(name, original)
        patch(owner, attr, replacement)
    for module_name, attr_path in root_sites:
        owner, attr = _resolve(module_name, attr_path)
        patch(owner, attr, recorder.wrap(ROOT, owner.__dict__[attr]))

    counts = recorder.counts

    class CountingPopen(subprocess.Popen):
        def __init__(self, args, *rest, **kwargs):
            if _INCREMENTAL_WORKER in list(args):
                counts["runtime.children_started"] += 1
            super().__init__(args, *rest, **kwargs)

    patch(subprocess, "Popen", CountingPopen)

    def uninstall():
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
    return uninstall


def cegis_phases(obs_trace_path):
    """Summed ``cegis.guess``/``verify``/``polish`` span seconds.

    Reads the ``obs/v1`` JSONL the program's own tracer wrote.  Verify
    spans opened inside polish count toward both verify and polish.
    """
    phases = {"cegis.guess": 0.0, "cegis.verify": 0.0, "cegis.polish": 0.0}
    with open(obs_trace_path, encoding="utf-8") as trace:
        for line in trace:
            try:
                record = json.loads(line)
            except ValueError:
                continue  # a torn final line from a killed writer
            if record.get("ev") == "span_end" and record.get("name") in phases:
                phases[record["name"]] += record["dur"]
    return phases


def layer_metrics(summary, counters, phases, iterations, synth_wall,
                  untraced_wall, build_seconds):
    """The per-layer metric values of one traced run.

    ``summary`` is :meth:`SpanRecorder.summary`; ``counters`` the
    ``repro.smt.counters`` delta across the traced work; ``phases`` the
    :func:`cegis_phases` result; ``synth_wall``/``untraced_wall`` the
    summed wall of the traced and untraced ``synthesize`` calls.
    """
    spans = summary["spans"]
    counts = summary["counts"]

    def field(name, key):
        return spans.get(name, {}).get(key, 0.0)

    instr = spans.get("synthesis.instruction", {}).get("durations", [])
    solve_s = field("sat.solve", "incl")
    check_s = field("smt.check", "incl")
    children = counts.get("runtime.children_started", 0)
    # With child solvers the propagations happen out of process, so they
    # are charged against the checks that waited for them.
    solve_time = check_s if children else solve_s
    polish_s = phases["cegis.polish"]
    return {
        "designs.build_s": build_seconds,
        "synthesis.independence_s": field("synthesis.independence", "incl"),
        "oyster.symeval_s": field("oyster.symeval", "self"),
        "oyster.symeval_calls": field("oyster.symeval", "calls"),
        "ila.compile_s": field("ila.compile", "self"),
        "smt.blast_s": field("smt.blast", "self"),
        "smt.aig_nodes": counters["aig_nodes"],
        "smt.encode_s": field("smt.encode", "self"),
        "smt.tseitin_clauses": counters["tseitin_clauses"],
        "smt.solver_instances": counters["solver_instances"],
        "smt.check_s": check_s,
        "smt.check_overhead_s": field("smt.check", "self"),
        "runtime.children_started": children,
        "sat.solve_s": solve_s,
        "sat.solves": field("sat.solve", "calls"),
        "sat.conflicts": counts.get("sat.conflicts", 0),
        "sat.propagations": counters["sat_propagations"],
        "sat.props_per_s": (counters["sat_propagations"] / solve_time
                            if solve_time > 0 else 0.0),
        "sat.learned": counters["sat_learned"],
        "sat.trail_reuse_hits": counters["sat_trail_reuse_hits"],
        "sat.chrono_backtracks": counters["sat_chrono_backtracks"],
        "cegis.iterations": iterations,
        "cegis.guess_s": phases["cegis.guess"],
        "cegis.verify_s": phases["cegis.verify"],
        "cegis.polish_s": polish_s,
        "cegis.polish_share": polish_s / synth_wall if synth_wall else 0.0,
        "synthesis.instr_p50_s": statistics.median(instr) if instr else 0.0,
        "synthesis.instr_max_s": max(instr) if instr else 0.0,
        "synthesis.union_s": field("synthesis.union", "incl"),
        "trace.unattributed_s": field(ROOT, "self"),
        "trace.overhead_frac": (synth_wall / untraced_wall - 1.0
                                if untraced_wall else 0.0),
    }
