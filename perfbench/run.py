"""The repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sc_rv32i --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
their timings are scaled by the host's speed around each sample
(``reference.py``), so they are in ``ref_s``: seconds on a host where
the reference workload takes ``reference.NOMINAL_S``.
``--trace 1`` runs the workload once untraced and then once with every
layer wrapped, and reports the per-layer metrics, the tracing overhead
being the ratio of those two adjacent runs.  Every output is checked by
an oracle that does not use the synthesizer (``oracles.py``), and the
counts and synthesized control of each run are compared with those of
earlier runs of the same workload on the same sources.

Standard output is a human-readable report (every metric with its unit,
the failure fraction, sample counts and the host fingerprint) followed by
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  Each
result is also appended, host-stamped, to ``.perfbench/results.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import layers
import procs
import reference
import service_mix

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

SYNTHESIS_WORKLOADS = ("sc_rv32i", "rv32i_child")
WORKLOADS = SYNTHESIS_WORKLOADS + ("service_mix",)
SETUP_PROBES = 9
RUN_LIMIT_S = 170.0

#: end-to-end metric -> unit
END_TO_END = {
    "synth_s": "ref_s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "control_loc": "lines",
    "control_gates": "gates",
    "ops_per_s": "1/ref_s",
}

#: per-layer metric -> unit
PER_LAYER = {
    "designs.build_s": "s",
    "synthesis.independence_s": "s",
    "oyster.symeval_s": "s",
    "oyster.symeval_calls": "count",
    "ila.compile_s": "s",
    "smt.blast_s": "s",
    "smt.aig_nodes": "count",
    "smt.encode_s": "s",
    "smt.tseitin_clauses": "count",
    "smt.solver_instances": "count",
    "smt.check_s": "s",
    "smt.check_overhead_s": "s",
    "runtime.children_started": "count",
    "runtime.children_alive": "count",
    "sat.solve_s": "s",
    "sat.solves": "count",
    "sat.conflicts": "count",
    "sat.propagations": "count",
    "sat.props_per_s": "1/s",
    "sat.learned": "count",
    "sat.trail_reuse_hits": "count",
    "sat.chrono_backtracks": "count",
    "cegis.iterations": "count",
    "cegis.guess_s": "s",
    "cegis.verify_s": "s",
    "cegis.polish_s": "s",
    "cegis.polish_share": "ratio",
    "synthesis.instr_p50_s": "s",
    "synthesis.instr_max_s": "s",
    "synthesis.union_s": "s",
    "svc.ack_ms": "ms",
    "svc.queue_wait_ms": "ms",
    "svc.request_submit_ms": "ms",
    "svc.journal_appends": "count",
    "svc.journal_bytes": "bytes",
    "svc.cache_hits": "count",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
    "host.ref_s": "s",
}

#: synthesis counts that must repeat exactly across runs
_DETERMINISTIC = ("solver_instances", "aig_nodes", "tseitin_clauses",
                  "sat_propagations", "sat_learned", "sat_restarts",
                  "sat_trail_reuse_hits", "sat_chrono_backtracks",
                  "iterations", "conflicts")


def host_fingerprint(source):
    """Where a result was measured, and on which sources.

    ``commit`` is git's HEAD when the checkout is a git tree (``None``
    otherwise); ``source`` is the content digest of the sources actually
    run, so uncommitted edits never pass for their parent commit.
    """
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "commit": commit,
            "source": source}


def source_digest():
    """Content digest of the Python sources under ``src/`` and ``perfbench/``.

    Both decide what a run synthesizes, so counts and control are only
    compared between runs with equal digests.
    """
    digest = hashlib.sha256()
    for top in (SRC, HERE):
        for folder, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, ROOT).encode("utf-8"))
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


class Result:
    """Accumulates ops, failures, metrics and report notes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics = {}
        self.notes = []

    def fail(self, count, why):
        self.failed += count
        self.notes.append(f"FAIL x{count}: {why}")

    def line(self, units):
        """The final JSON line, over the metrics named in ``units``."""
        return {
            "correct": self.failed == 0, "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.metrics.get(name, 0),
                               "unit": unit}
                        for name, unit in units.items()},
        }


def log_result(path, host, args, result):
    """Append one host-stamped result to the JSON-lines log at ``path``."""
    units = PER_LAYER if args.trace else END_TO_END
    with open(path, "a", encoding="utf-8") as log:
        log.write(json.dumps({
            "time": time.time(), "host": host, "workload": args.workload,
            "seed": args.seed, "trace": args.trace,
            **result.line(units)}) + "\n")


class DeterminismStore:
    """What earlier runs of each workload on the same sources produced.

    One file per source digest: a changed program starts a fresh baseline
    instead of being held to its parent's counts.
    """

    def __init__(self, path):
        self.path = path
        try:
            with open(path, encoding="utf-8") as handle:
                self.data = json.load(handle)
        except (OSError, ValueError):
            self.data = {}

    def check(self, workload, key, value):
        """Record ``value`` on first sight; afterwards, True iff equal."""
        seen = self.data.setdefault(workload, {})
        if key not in seen:
            seen[key] = value
            return True
        return seen[key] == value

    def save(self):
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.data, handle, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def run_synthesis(args, work, store, result):
    worker = [sys.executable, os.path.join(HERE, "synth_worker.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--state-dir", work]
    setups = []
    for _ in range(SETUP_PROBES):
        child, seconds, _ = procs.spawn_ready(worker + ["--setup-only"],
                                              "ready")
        setups.append(seconds)
        if child.stop(timeout=30) != 0:
            result.fail(1, "set-up probe did not exit 0")
    started = time.monotonic()
    child, seconds, _ = procs.spawn_ready(worker, "ready")
    setups.append(seconds)
    line = child.last_line(timeout=RUN_LIMIT_S - (time.monotonic() - started))
    code = child.stop(timeout=10)
    if code != 0 or not line:
        raise RuntimeError(f"synthesis worker failed (exit {code})")
    out = json.loads(line)
    # Hygiene is judged once the worker has exited: the backend leaves
    # its child solvers waiting on stdin until then (runtime.children_alive
    # shows how many), so only a child that outlives its owner fails.
    left = procs.survivors(out["children"], grace=5.0)
    if left:
        result.fail(len(left), f"solver children outlived the worker: {left}")

    for index, call in enumerate(out["calls"]):
        result.attempted += call["attempted"]
        if call["failed"]:
            result.fail(len(call["failed"]),
                        f"call {index}: unsolved or rejected {call['failed']}")
        counts = {k: call["counts"][k] for k in _DETERMINISTIC}
        if not store.check(args.workload, "counts", counts):
            result.fail(call["attempted"], f"call {index}: counts differ "
                        f"from earlier runs: {counts}")
        if not store.check(args.workload, "hole_digest", call["hole_digest"]):
            result.fail(call["attempted"],
                        f"call {index}: hole values differ from earlier runs")
    first = out["calls"][0]
    result.notes.append(
        f"calls={len(out['calls'])} instructions/call={first['attempted']} "
        f"hole_digest={first['hole_digest']} "
        f"children_alive_after_synth={first['children_alive']}")
    result.notes.append("counts " + json.dumps(
        {k: first["counts"][k] for k in _DETERMINISTIC}))

    if args.trace:
        # The worker made one untraced call, then the traced one.
        traced = out["calls"][-1]
        # The untraced wall as it would read at the traced call's host
        # speed, so that host drift between the two calls cancels.
        untraced = first["wall"] * traced["ref"] / first["ref"]
        values = layers.layer_metrics(
            traced["summary"], traced["counts"], traced["phases"],
            traced["counts"]["iterations"], traced["wall"], untraced,
            traced["summary"]["spans"]["designs.build"]["incl"])
        values["runtime.children_alive"] = traced["children_alive"]
        values["host.ref_s"] = traced["ref"]
        result.metrics = values
        result.notes.append(
            f"traced synth {traced['wall']:.3f} s right after an untraced "
            f"one of {first['wall']:.3f} s; layer self times cover "
            f"{1 - values['trace.unattributed_s'] / traced['wall']:.2%}")
        return
    synth_s = reference.scale(
        statistics.median(call["wall"] for call in out["calls"]),
        statistics.median(call["ref"] for call in out["calls"]))
    result.notes.append("synth walls " + " ".join(
        f"{call['wall']:.3f}" for call in out["calls"]) + " s; reference "
        + " ".join(f"{call['ref']:.4f}" for call in out["calls"]) + " s")
    result.metrics = {
        "synth_s": synth_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": out["peak_rss_mb"],
        "control_loc": out["control_loc"],
        "control_gates": out["control_gates"],
        "ops_per_s": first["attempted"] / synth_s,
    }


def _service_session(args, work, store, result, **kwargs):
    run = service_mix.session(work, args.seed, args.seconds, **kwargs)
    records = run["records"]
    digests, loc, gates = service_mix.check_records(records, args.seed)
    changed = {job for job, digest in digests.items()
               if not store.check(args.workload, job, digest)}
    for record in records:
        if record["error"] is None and \
                service_mix.job_key(record) in changed:
            record["error"] = "design differs from earlier runs"
    result.attempted += len(records)
    errors = [r["error"] for r in records if r["error"] is not None]
    if errors:
        result.fail(len(errors), f"service ops: {sorted(set(errors))}")
    if run["exit_code"] != 0:
        result.fail(1, f"daemon exit code {run['exit_code']} on shutdown")
    rounds = run["rounds"]
    ref = statistics.median(r["ref"] for r in rounds)
    run.update(control_loc=loc, control_gates=gates,
               synth_s=reference.scale(
                   statistics.median(r["cold_s"] for r in rounds), ref),
               ops_per_s=statistics.median(r["ops"] / r["wall"]
                                           for r in rounds)
               * ref / reference.NOMINAL_S)
    result.notes.append(
        f"{len(rounds)} rounds: ops " + " ".join(
            str(r["ops"]) for r in rounds) + "; walls " + " ".join(
            f"{r['wall']:.3f}" for r in rounds) + " s; reference " + " ".join(
            f"{r['ref']:.4f}" for r in rounds) + " s; mean cold latency "
        + " ".join(f"{r['cold_s']:.4f}" for r in rounds) + " s")
    return run


def run_service(args, work, store, result):
    setups = []
    for _ in range(SETUP_PROBES - 1):
        seconds, clean = service_mix.probe_setup(work)
        setups.append(seconds)
        if not clean:
            result.fail(1, "set-up probe daemon did not exit 0")
    run = _service_session(args, work, store, result)
    if args.trace:
        # One traced daemon session right after the untraced one.
        layers_out = os.path.join(work, "service.layers.json")
        obs_trace = os.path.join(work, "service.obs.jsonl")
        traced = _service_session(args, work, store, result,
                                  layers_out=layers_out, obs_trace=obs_trace)
        with open(layers_out, encoding="utf-8") as handle:
            daemon = json.load(handle)
        roots = daemon["summary"]["spans"].get(layers.ROOT, {})
        values = layers.layer_metrics(
            daemon["summary"], daemon["counters"],
            layers.cegis_phases(obs_trace), daemon["iterations"],
            roots.get("incl", 0.0), None, daemon["build_s"])
        hist = traced["telemetry"]
        cold = [r for r in traced["records"]
                if not r["cached"] and "ack_s" in r]
        values.update({
            "trace.overhead_frac": run["ops_per_s"] / traced["ops_per_s"]
            - 1.0,
            "svc.ack_ms": (1000 * statistics.fmean(r["ack_s"] for r in cold)
                           if cold else 0.0),
            "svc.queue_wait_ms": _hist_mean_ms(hist, "service.queue_wait"),
            "svc.request_submit_ms": _hist_mean_ms(
                hist, "service.request.submit"),
            "svc.journal_appends": hist.get("service.journal.appends", 0),
            "svc.journal_bytes": traced["journal_bytes"],
            "svc.cache_hits": hist.get("service.cache.hits", 0),
            "host.ref_s": statistics.median(r["ref"]
                                            for r in traced["rounds"]),
        })
        result.metrics = values
        result.notes.append(
            f"traced {traced['ops_per_s']:.2f} scaled ops/s right after "
            f"an untraced {run['ops_per_s']:.2f}; "
            f"{roots.get('calls', 0)} synthesize calls in the daemon, layer "
            f"self times cover "
            f"{1 - values['trace.unattributed_s'] / roots['incl']:.2%}")
        return
    setups.append(run["setup_s"])
    records = run["records"]
    cold = [r["latency_s"] for r in records
            if r["error"] is None and not r["cached"]]
    hits = [r["latency_s"] for r in records
            if r["error"] is None and r["cached"]]
    for label, values in (("svc.cold", cold), ("svc.hit", hits)):
        summary = service_mix.latency_summary(values)
        text = f"{label}_p50_ms {summary['p50_ms']:.3f} ms"
        if "tail_pct" in summary:
            text += (f", {label}_p{summary['tail_pct']}_ms "
                     f"{summary['tail_ms']:.3f} ms")
        else:
            text += ", no tail percentile has 10 samples above it"
        result.notes.append(f"{text} (n={summary['n']})")
    result.notes.append(f"svc.ops_per_s {len(records) / run['elapsed']:.3f} "
                        f"1/s over {run['elapsed']:.2f} s, {len(records)} "
                        f"ops, {service_mix.CLIENTS} clients")
    result.metrics = {
        "synth_s": run["synth_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
        "control_loc": run["control_loc"],
        "control_gates": run["control_gates"],
        "ops_per_s": run["ops_per_s"],
    }


def _hist_mean_ms(metrics, name):
    hist = metrics.get(f"hist.{name}") or {}
    return 1000 * hist["sum"] / hist["count"] if hist.get("count") else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(STATE, exist_ok=True)
    source = source_digest()
    host = host_fingerprint(source)
    store = DeterminismStore(os.path.join(STATE,
                                          f"determinism-{source}.json"))
    measure = run_service if args.workload == "service_mix" \
        else run_synthesis
    result = Result()
    work = tempfile.mkdtemp(prefix="run-", dir=STATE)
    try:
        measure(args, work, store, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    store.save()
    log_result(os.path.join(STATE, "results.jsonl"), host, args, result)

    units = PER_LAYER if args.trace else END_TO_END
    fail_frac = result.failed / max(result.attempted, 1)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    for note in result.notes:
        print("  " + note)
    print(f"  fail_frac {fail_frac:.6f} ratio "
          f"({result.failed} of {result.attempted} ops)")
    for name, unit in units.items():
        print(f"  {name} {result.metrics.get(name, 0):.6g} {unit}")
    print(json.dumps(result.line(units)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
