"""The working process of one synthesis-workload run.

Started by ``run.py`` as a fresh interpreter.  It imports ``repro`` from
the checkout's ``src/``, builds the workload's problem, prints ``ready``
(the end of set-up), and then, unless ``--setup-only``:

* untraced (``--trace 0``): calls ``synthesize``, each time on a freshly
  built problem, as often as fits in ``--seconds`` (at least once),
  timing the reference workload (``reference.py``) between calls;
* traced (``--trace 1``): one untraced call, then one with every layer
  wrapped (see ``layers.py``) and the program's own tracer on; the two
  adjacent walls give the tracing overhead.

Every result is checked by the co-simulation oracle.  The last stdout
line is one JSON object with the raw measurements; ``run.py`` turns them
into metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import sys
import time

import layers
import procs
import reference

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: One instruction each of the R-ALU, I-ALU, U and logic groups of the
#: Table 1 quick subset, on the single-cycle core.  A ``synthesize`` call
#: on it takes 5-8 s in-process on a 2-vCPU host, so one run's median is
#: taken over several calls; the whole quick subset takes 18-27 s, one
#: call per run.
SUBSET = ["add", "addi", "lui", "and"]

#: workload -> solver backend.  The two differ only in the backend, so
#: their difference is the child runtime's cost.
WORKLOADS = {
    "sc_rv32i": "inprocess",
    "rv32i_child": "incremental-subprocess",
}


def hole_digest(solutions):
    table = {s.instruction_name: s.hole_values for s in solutions}
    text = json.dumps(table, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Workload:
    def __init__(self, name):
        from repro.designs import riscv
        from repro.smt.backends import SolverConfig

        self.names = SUBSET
        self.config = SolverConfig(backend=WORKLOADS[name])
        self._build = lambda: riscv.build_problem(
            "RV32I", "single_cycle", instructions=SUBSET)

    def build(self):
        return self._build()

    def synthesize(self, problem, rng, recorder=None):
        """One ``synthesize`` call plus its oracle verdict."""
        from repro.smt import counters
        from repro.synthesis import synthesize
        import oracles

        alive_before = len(procs.live_children())
        before = counters.snapshot()
        started = time.perf_counter()
        if recorder is None:
            result = synthesize(problem, config=self.config,
                                on_timeout="partial")
        else:
            with recorder.span(layers.ROOT):
                result = synthesize(problem, config=self.config,
                                    on_timeout="partial")
        wall = time.perf_counter() - started
        delta = counters.delta_since(before)
        if result.is_partial:
            solutions, failed = result.completed, set(self.names)
        else:
            solutions = result.per_instruction
            failed = oracles.check_riscv(result.completed_design, self.names,
                                         rng)
        gc.collect()
        call = {
            "wall": wall,
            "failed": sorted(failed),
            "attempted": len(self.names),
            "hole_digest": hole_digest(solutions),
            "counts": dict(
                delta,
                iterations=sum(s.iterations for s in solutions),
                conflicts=sum(s.conflicts for s in solutions),
            ),
            "children_alive": len(procs.live_children()) - alive_before,
        }
        return result, call


def control_size(problem, result):
    from repro.hdl.codegen import control_loc, generate_pyrtl_control
    from repro.netlist.optimize import optimize
    from repro.netlist.stats import gate_count
    from repro.netlist.synth import synthesize_netlist

    loc = control_loc(generate_pyrtl_control(problem, result))
    gates = gate_count(optimize(synthesize_netlist(result.completed_design)))
    return loc, gates


def traced_call(workload, rng, state_dir, run_id):
    """One synthesize call with every layer wrapped.

    Returns the call record, which carries the span summary and the CEGIS
    phase times.
    """
    from repro.obs import trace as obs_trace

    recorder = layers.SpanRecorder(run_id)
    uninstall = layers.install(recorder)
    obs_path = os.path.join(state_dir, f"{run_id}.obs.jsonl")
    tracer = obs_trace.Tracer(obs_path, run_id=run_id)
    obs_trace.install(tracer)
    try:
        with recorder.span("designs.build"):
            problem = workload.build()
        call = workload.synthesize(problem, rng, recorder)[1]
    finally:
        obs_trace.clear()
        tracer.close()
        uninstall()
    recorder.dump(os.path.join(state_dir, f"{run_id}.spans.jsonl"))
    call["summary"] = recorder.summary()
    call["phases"] = layers.cegis_phases(obs_path)
    return call


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--state-dir", default=".")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Solver children re-import repro, so they need the same path.
    sys.path.insert(0, SRC)
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (SRC if not inherited
                                else SRC + os.pathsep + inherited)

    workload = Workload(args.workload)
    problem = workload.build()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    rng = random.Random(args.seed)
    started = time.perf_counter()
    ref = reference.measure()

    def sampled(call):
        # The host's speed around the call: the reference just before
        # and just after it.
        nonlocal ref
        after = reference.measure()
        call["ref"] = (ref + after) / 2
        ref = after
        return call

    result, call = workload.synthesize(problem, rng)
    calls = [sampled(call)]
    out = {"control_loc": 0, "control_gates": 0}
    if not result.is_partial:
        out["control_loc"], out["control_gates"] = control_size(problem,
                                                                result)
        ref = reference.measure()
    del problem, result
    if args.trace:
        run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
        calls.append(sampled(traced_call(workload, rng, args.state_dir,
                                         run_id)))
    # Another call only if it fits in the measuring window.
    while not args.trace and (time.perf_counter() - started
                              + calls[-1]["wall"] <= args.seconds):
        problem = workload.build()
        calls.append(sampled(workload.synthesize(problem, rng)[1]))
        del problem
    gc.collect()
    out.update(
        calls=calls,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        children=procs.live_children(),
    )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
