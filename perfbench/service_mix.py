"""The ``service_mix`` workload: two closed-loop clients against the daemon.

Each job names one problem of a fixed catalog: an instruction subset of
``accumulator`` or ``alu_machine`` (as a bit mask over the spec's
instructions), optionally under a renamed sketch so that it has a new
idempotency key.  Names look like ``alu_machine.5.0`` (design, mask,
copy).  Jobs run in both synthesis modes.

The plan is drawn from the seed.  Cold jobs come in rounds: round ``c``
submits each of the 60 design/mask/mode jobs once, as copy ``c``, in a
seeded order (round 0 starts with the four full-ISA problems, so every
run completes them).  After each cold job come ``DUPS_PER_COLD``
duplicate resubmissions, each of a seeded-random job among those
already completed, which the daemon answers from its idempotency
cache.  Rounds run one at a time, so every round after the first does
the same 180 operations whatever the seed, and the timings are taken
per round (see ``session``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import random
import statistics
import sys
import tempfile
import threading
import time

import procs
import reference

HERE = os.path.dirname(os.path.abspath(__file__))

#: design -> instruction names; mask bit i selects the i-th name
DESIGNS = {
    "accumulator": ("reset_instr", "go_start", "go_continue", "stop_instr"),
    "alu_machine": ("ADD", "SUB", "AND", "XOR"),
}
MODES = ("per_instruction", "monolithic")
FULL_MASK = 15
#: Renamed copies of each of the 60 design/mask/mode jobs, one per round.
#: Only enough to never run out: a round takes 6-12 s on a 2-vCPU host,
#: so the count changes no measurement.
COPIES = 64
CLIENTS = 2
#: Resubmissions of completed jobs after each cold job: two operations
#: in three hit the cache.  An assumption, not a measured traffic mix:
#: nothing in the repository fixes it (README.md, "Workloads").  A fixed
#: pattern rather than a coin flip keeps every round's operation count
#: the same.
DUPS_PER_COLD = 2


def catalog_names():
    for design in DESIGNS:
        for mask in range(1, FULL_MASK + 1):
            for copy in range(COPIES):
                yield f"{design}.{mask}.{copy}"


def parse_name(name):
    design, mask, copy = name.rsplit(".", 2)
    return design, int(mask), int(copy)


def job_key(record):
    """``design.mask.mode``: what a record's copy-independent answer is."""
    design, mask, _ = parse_name(record["name"])
    return f"{design}.{mask}.{record['mode']}"


def subset(design, mask):
    return [n for i, n in enumerate(DESIGNS[design]) if mask >> i & 1]


def build_named(name):
    """The catalog problem ``name`` (runs inside the daemon)."""
    from repro.designs import accumulator, alu_machine

    design, mask, copy = parse_name(name)
    module = {"accumulator": accumulator, "alu_machine": alu_machine}[design]
    problem = module.build_problem()
    wanted = set(subset(design, mask))
    problem.spec.instructions = [i for i in problem.spec.instructions
                                 if i.name in wanted]
    if copy:
        sketch = dataclasses.replace(problem.sketch,
                                     name=f"{problem.sketch.name}_v{copy}")
        problem = dataclasses.replace(problem, sketch=sketch)
    return problem


class Plan:
    """The seeded operation stream the client threads share, by rounds."""

    def __init__(self, seed):
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._done = []
        self._dups = DUPS_PER_COLD
        self._cold = []
        self._order = [(d, m, mode) for d in DESIGNS
                       for m in range(1, FULL_MASK + 1) for mode in MODES]

    def start_round(self, copy):
        """Hand out round ``copy``'s cold jobs next, in a seeded order."""
        if copy == 0:
            core = [job for job in self._order if job[1] == FULL_MASK]
            rest = [job for job in self._order if job[1] != FULL_MASK]
            self._rng.shuffle(core)
            self._rng.shuffle(rest)
            self._order = core + rest
        else:
            self._rng.shuffle(self._order)
        with self._lock:
            self._cold = [(f"{design}.{mask}.{copy}", mode)
                          for design, mask, mode in reversed(self._order)]

    def next_op(self):
        """The next ``(name, mode)``, or ``None`` when the round is over."""
        with self._lock:
            if self._done and self._dups < DUPS_PER_COLD:
                self._dups += 1
                return self._rng.choice(self._done)
            if not self._cold:
                return None
            self._dups = 0
            return self._cold.pop()

    def completed(self, name, mode):
        with self._lock:
            self._done.append((name, mode))


def _client(client, plan, records):
    from repro.service.client import ServiceError

    while True:
        op = plan.next_op()
        if op is None:
            return
        name, mode = op
        record = {"name": name, "mode": mode, "cached": False}
        started = time.perf_counter()
        try:
            ack = client.submit(name, mode=mode)
            record["ack_s"] = time.perf_counter() - started
            if ack.get("cached"):
                record["cached"] = True
                job = {"state": "done", "result": ack.get("result")}
            else:
                job = client.wait(ack["job_id"], timeout=60.0)
        except (ServiceError, OSError, KeyError) as exc:
            job = {"state": f"error: {exc!r}"}
        record["latency_s"] = time.perf_counter() - started
        result = job.get("result") or {}
        record["design"] = result.get("design")
        record["error"] = None if job.get("state") == "done" and \
            record["design"] else str(job.get("state"))
        if record["error"] is None and not record["cached"]:
            plan.completed(name, mode)
        records.append(record)


def _launcher_argv(state_dir, layers_out=None, obs_trace=None):
    argv = [sys.executable, os.path.join(HERE, "service_launcher.py")]
    if layers_out:
        argv += ["--layers-out", layers_out]
    argv += ["--", "--state-dir", state_dir, "--tcp", "127.0.0.1:0"]
    if obs_trace:
        argv += ["--trace", obs_trace]
    return argv


def _start_daemon(work_dir, **kwargs):
    state_dir = tempfile.mkdtemp(prefix="daemon-", dir=work_dir)
    child, setup_s, line = procs.spawn_ready(
        _launcher_argv(state_dir, **kwargs), '{"listening"')
    port = json.loads(line)["listening"][1]
    return child, setup_s, port, state_dir


def _shutdown(child, port):
    """Ask the daemon to stop; its exit code (``None`` if killed)."""
    from repro.service.client import ServiceClient, ServiceError

    try:
        with ServiceClient(port=port, timeout=30.0) as client:
            client.shutdown()
    except (ServiceError, ConnectionError, OSError):
        pass
    return child.stop(timeout=60.0)


def _peak_rss_mb(pid):
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status")


def probe_setup(work_dir):
    """One daemon start to its listening line; returns (seconds, exit ok)."""
    child, setup_s, port, _ = _start_daemon(work_dir)
    return setup_s, _shutdown(child, port) == 0


def session(work_dir, seed, seconds, layers_out=None, obs_trace=None):
    """One daemon lifetime under the closed loop; returns raw records.

    Rounds run one after another while the next fits in ``seconds``;
    between two rounds the clients are idle and the reference workload
    is timed (``reference.py``).
    """
    from repro.service.client import ServiceClient

    child, setup_s, port, state_dir = _start_daemon(
        work_dir, layers_out=layers_out, obs_trace=obs_trace)
    try:
        with contextlib.ExitStack() as stack:
            clients = [stack.enter_context(ServiceClient(port=port,
                                                         timeout=60.0))
                       for _ in range(CLIENTS)]
            plan = Plan(seed)
            rounds, records = [], []
            started = time.perf_counter()
            ref = reference.measure()
            while len(rounds) < COPIES and (
                    not rounds or time.perf_counter() - started
                    + rounds[-1]["wall"] <= seconds):
                plan.start_round(len(rounds))
                done = []
                began = time.perf_counter()
                threads = [threading.Thread(target=_client,
                                            args=(client, plan, done))
                           for client in clients]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                wall = time.perf_counter() - began
                after = reference.measure()
                cold = [r["latency_s"] for r in done
                        if r["error"] is None and not r["cached"]]
                rounds.append({
                    "wall": wall, "ref": (ref + after) / 2, "ops": len(done),
                    "cold_s": statistics.fmean(cold) if cold else 0.0})
                records += done
                ref = after
            elapsed = time.perf_counter() - started
            telemetry = clients[0].telemetry()["metrics"]
        peak_rss_mb = _peak_rss_mb(child.proc.pid)
    finally:
        exit_code = _shutdown(child, port)
    journal_bytes = sum(
        os.path.getsize(os.path.join(state_dir, entry))
        for entry in os.listdir(state_dir) if entry.startswith("journal"))
    return {
        "setup_s": setup_s, "records": records, "rounds": rounds,
        "elapsed": elapsed, "telemetry": telemetry,
        "peak_rss_mb": peak_rss_mb, "exit_code": exit_code,
        "journal_bytes": journal_bytes,
    }


def normalized_digest(text):
    """Digest of a design's text without its (copy-specific) name line."""
    body = text.split("\n", 1)[1]
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


def check_records(records, seed):
    """Run the oracle once per distinct design; mark failed records.

    Returns ``(digests, control_loc, control_gates)``: the design digest
    of each ``design.mask.mode`` job and the control size summed over the
    four full-ISA jobs.
    """
    from repro.hdl.codegen import control_loc, generate_pyrtl_control
    from repro.netlist.optimize import optimize
    from repro.netlist.stats import gate_count
    from repro.netlist.synth import synthesize_netlist
    from repro.oyster.parser import parse_design
    from repro.synthesis.result import InstructionSolution

    import oracles

    rng = random.Random(seed)
    verdicts = {}
    digests = {}
    loc = gates = 0
    for record in records:
        if record["error"] is not None:
            continue
        design_name, mask, _ = parse_name(record["name"])
        job = job_key(record)
        digest = normalized_digest(record["design"])
        if digests.setdefault(job, digest) != digest:
            record["error"] = "nondeterministic design"
            continue
        if job not in verdicts:
            design = parse_design(record["design"])
            names = subset(design_name, mask)
            ok, holes = oracles.check_service_design(design_name, names,
                                                     design, rng)
            verdicts[job] = ok
            if ok and mask == FULL_MASK:
                problem = build_named(record["name"])
                solved = [InstructionSolution(n, holes[n], 0, 0.0)
                          for n in names]
                loc += control_loc(generate_pyrtl_control(
                    problem, _Solutions(solved)))
                gates += gate_count(optimize(synthesize_netlist(design)))
        if not verdicts[job]:
            record["error"] = "oracle rejected the design"
    return digests, loc, gates


@dataclasses.dataclass
class _Solutions:
    """The one field ``generate_pyrtl_control`` reads from a result."""

    per_instruction: list


def latency_summary(values_s):
    """p50 and the highest percentile up to p90 with ten samples above."""
    values = sorted(v * 1000 for v in values_s)
    n = len(values)
    out = {"n": n, "p50_ms": statistics.median(values) if values else 0.0}
    tail = min(90, int(100 * (1 - 10 / n))) if n > 10 else 0
    if tail >= 50:
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        out["tail_pct"], out["tail_ms"] = tail, cuts[tail - 1]
    return out
