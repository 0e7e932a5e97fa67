"""Counterexample-guided inductive synthesis over the QF_BV solver.

This is the decision procedure for the ∃holes ∀state formulas of
Equation (1)/(2).  Rosette's ``synthesize`` runs the same loop internally;
here it is explicit:

1. *verify*: with the current hole candidate substituted, ask the solver for
   a state falsifying the formula.  UNSAT means the candidate is correct.
2. *guess*: substitute the counterexample state into the formula (constant
   folding collapses the datapath almost entirely) and add it as a
   constraint on the hole variables; ask for a new candidate.

The guess solver is incremental — every counterexample stays, so candidates
monotonically improve.  The verify side has two modes: the default
substitutes the candidate and solves a fresh, folded query; the
``incremental`` mode (see ``repro.synthesis.incremental``) stages each
candidate's folded negation, selector-guarded, into one persistent
per-formula verifier — interned AIG regions, SAT variables and learned
clauses all survive across iterations and instructions.  After
convergence, polish runs lexicographic-minimum CEGIS on the same guess
solver (see :func:`_lex_min_polish`).  Both sides run under a
cooperative ``repro.runtime.Budget`` (wall clock, conflicts, memory) so
Table 1's timeout rows reproduce faithfully, and every UNKNOWN is typed:

* ``reason="deadline"``/``"memory"`` → :class:`SynthesisTimeout` — more
  attempts cannot help;
* ``reason="conflicts"``/``"injected"`` → retried under the
  :class:`repro.runtime.RetryPolicy` (escalated conflict budget, reseeded
  decision order), then :class:`SolverUnknown` if retries are exhausted;
* a SAT verdict with an out-of-width model (a buggy or fault-injected
  backend) → :class:`MalformedModel`, never silently corrupted control
  logic.
"""

from __future__ import annotations

import contextlib
import time

from repro.obs import trace as _obs
from repro.obs.metrics import METRICS as _METRICS
from repro.runtime import (
    Budget,
    BudgetExhausted,
    MalformedModel,
    SolverUnknown,
    run_with_retry,
)
from repro.smt import counters as _counters
from repro.smt import terms as T
from repro.smt.backends import resolve_solver_config
from repro.smt.solver import Solver, SAT, UNSAT, UNKNOWN
from repro.synthesis.incremental import IncrementalContext, candidate_assumptions
from repro.synthesis.result import SynthesisFailure, SynthesisTimeout

__all__ = ["cegis_solve", "CegisStats"]

class CegisStats:
    """Counters for one CEGIS run (exposed in synthesis results).

    The encode counters (``solver_instances``, ``aig_nodes``,
    ``tseitin_clauses``) are deltas of the process-global
    ``repro.smt.counters`` taken across the run — under concurrent
    isolated dispatch they attribute jointly, but serial runs (the bench
    and CI configurations) are exact.
    """

    def __init__(self):
        self.iterations = 0
        self.verify_time = 0.0
        self.guess_time = 0.0
        self.verify_conflicts = 0
        self.guess_conflicts = 0
        self.retries = 0
        self.polish_checks = 0
        self.polish_conflicts = 0
        self.solver_instances = 0
        self.aig_nodes = 0
        self.tseitin_clauses = 0

    @property
    def conflicts(self):
        return self.verify_conflicts + self.guess_conflicts

    def as_dict(self):
        return {
            "iterations": self.iterations,
            "verify_time": self.verify_time,
            "guess_time": self.guess_time,
            "verify_conflicts": self.verify_conflicts,
            "guess_conflicts": self.guess_conflicts,
            "retries": self.retries,
            "polish_checks": self.polish_checks,
            "polish_conflicts": self.polish_conflicts,
            "solver_instances": self.solver_instances,
            "aig_nodes": self.aig_nodes,
            "tseitin_clauses": self.tseitin_clauses,
        }


def cegis_solve(formula, hole_vars, max_iterations=256, timeout=None,
                stats=None, initial_candidate=None, partial_eval=True,
                budget=None, retry_policy=None, execution=None,
                worker_pool=None, incremental=False, incremental_ctx=None,
                canonicalize=True, config=None, backend=None):
    """Find ints for ``hole_vars`` making ``formula`` valid for all states.

    ``formula`` is a width-1 term whose free variables are ``hole_vars``
    plus the universally quantified state.  Returns ``{hole name: int}``.

    ``partial_eval`` controls whether the verify step substitutes the
    candidate constants into the formula (letting the rewriting constructors
    collapse the datapath) or merely asserts ``hole == constant`` equalities
    alongside the unreduced formula.  The latter exists for the ablation
    study — it produces the full-datapath queries a rewrite-free evaluator
    would send to the solver.

    ``incremental=True`` selects the persistent-verifier mode: each
    candidate's folded ``¬formula`` is staged, selector-guarded, into the
    formula's long-lived verifier inside ``incremental_ctx`` (an
    :class:`repro.synthesis.incremental.IncrementalContext`; a private one
    is created when omitted) and decided under a one-literal selector
    assumption — no per-iteration solver construction, shared interned
    AIG (so shared SAT variables) between consecutive candidates, and
    learned clauses that survive across iterations *and* across
    instructions sharing the context.  The substitution path
    (``incremental=False``) is retained as the ablation baseline.

    ``canonicalize=True`` (the default) polishes the converged candidate:
    each hole, in hole order, drops to the least value that still
    verifies with the other holes fixed.  Don't-care bits — where the
    verify search would otherwise return an arbitrary, pipeline-dependent
    pick — land on a canonical value, so fresh and incremental runs
    synthesize identical control logic (and the control union sees fewer
    spurious groups).  Polish is lexicographic-minimum CEGIS: an
    MSB-first descent of the hole's bits on the guess solver proposes
    the least value no counterexample refutes yet, and one ordinary
    verify check accepts it or returns a counterexample that refutes
    it, so most values are ruled out without a verify of their own.
    ``stats.polish_checks`` counts those verify checks and
    ``stats.polish_conflicts`` the conflicts polish spent.

    ``budget`` is a ``repro.runtime.Budget`` shared by both CEGIS sides
    (``timeout`` is folded into it); ``retry_policy`` governs escalation on
    retryable UNKNOWNs.

    ``config`` (a :class:`repro.smt.backends.SolverConfig`) or ``backend``
    (a registered backend name / instance) selects the decision procedure
    for every solver this run constructs.  ``backend="isolated"`` with a
    ``worker_pool`` runs every check in a sandboxed child process of a
    ``repro.runtime.SolverWorkerPool``: worker deaths surface as retryable
    ``WorkerCrashed``/``WorkerKilled`` faults and flow through the same
    retry machinery as conflict-cap UNKNOWNs, landing each retry on a
    freshly spawned worker.  ``execution``/``worker_pool`` are the
    deprecated PR-2 spellings of the same selection.

    Raises ``SynthesisFailure`` if no assignment exists,
    ``SynthesisTimeout`` if the wall-clock/memory budget is exhausted, and
    ``SolverUnknown`` if the solver gave up for a non-budget reason even
    after retries.
    """
    config = resolve_solver_config(config, backend=backend,
                                   execution=execution,
                                   worker_pool=worker_pool)
    if stats is None:
        stats = CegisStats()
    if incremental and not partial_eval:
        raise ValueError(
            "incremental verify requires partial_eval=True; the "
            "partial_eval=False ablation is the fresh-pipeline baseline"
        )
    if budget is None:
        budget = Budget(timeout=timeout)
    elif timeout is not None:
        budget = budget.child(timeout=timeout)
    encode_before = _counters.snapshot()
    try:
        return _cegis_loop(
            formula, hole_vars, max_iterations, stats, initial_candidate,
            partial_eval, budget, retry_policy, config,
            incremental, incremental_ctx, canonicalize,
        )
    finally:
        encode_delta = _counters.delta_since(encode_before)
        stats.solver_instances += encode_delta["solver_instances"]
        stats.aig_nodes += encode_delta["aig_nodes"]
        stats.tseitin_clauses += encode_delta["tseitin_clauses"]


def _cegis_loop(formula, hole_vars, max_iterations, stats, initial_candidate,
                partial_eval, budget, retry_policy, config,
                incremental, incremental_ctx, canonicalize):
    hole_names = {var.name for var in hole_vars}
    forall_vars = [
        var for var in T.free_variables(formula)
        if var.name not in hole_names
    ]
    candidate = {var.name: 0 for var in hole_vars}
    if initial_candidate:
        candidate.update(initial_candidate)
    hole_by_name = {var.name: var for var in hole_vars}
    guess_blaster = None
    if incremental:
        if incremental_ctx is None:
            incremental_ctx = IncrementalContext(config=config)
        guess_blaster = incremental_ctx.guess_blaster
    guess_solver = Solver(blaster=guess_blaster, **config.solver_kwargs())

    verify_mode = ("incremental" if incremental
                   else "substitution" if partial_eval else "ablation")

    def verify_candidate(cand):
        """One verify check for ``cand``; returns (verdict, verifier)."""
        started = time.monotonic()
        with _obs.span("cegis.verify", mode=verify_mode):
            if incremental and partial_eval:
                # Fold the candidate's constants into the formula — the
                # same datapath collapse the fresh pipeline gets — but
                # decide the query on the formula's *persistent* folded
                # verifier: consecutive candidates' instances share
                # interned AIG nodes (so SAT variables), and learned
                # clauses carry over, which makes repeat proofs nearly
                # free.  The symbolic-hole assumption check was measured
                # and retired here: its full-cone descent floor costs
                # more per check than a folded solve *plus* its encode
                # delta, on every workload shape.
                substitution = {
                    hole_by_name[name]: T.bv_const(
                        value, hole_by_name[name].width)
                    for name, value in cand.items()
                }
                verifier, sel = incremental_ctx.assert_folded(
                    formula, substitution)
                conflicts_before = verifier.conflicts
                verdict = _checked(verifier, budget, retry_policy, stats,
                                   side="verification", assumptions=[sel])
            elif incremental:
                # Rewrite-free ablation shape, incremental spelling: one
                # persistent verifier holds the unreduced ¬formula and
                # each candidate rides in as per-bit hole assumptions.
                verifier = incremental_ctx.verifier_for(formula)
                conflicts_before = verifier.conflicts
                assumptions = candidate_assumptions(hole_by_name, cand)
                verdict = _checked(verifier, budget, retry_policy, stats,
                                   side="verification",
                                   assumptions=assumptions)
            elif partial_eval:
                verifier = Solver(**config.solver_kwargs())
                conflicts_before = 0
                substitution = {
                    hole_by_name[name]: T.bv_const(value,
                                                   hole_by_name[name].width)
                    for name, value in cand.items()
                }
                verifier.add(T.bv_not(T.substitute(formula, substitution)))
                verdict = _checked(verifier, budget, retry_policy, stats,
                                   side="verification")
            else:
                verifier = Solver(**config.solver_kwargs())
                conflicts_before = 0
                verifier.add(T.bv_not(formula))
                for name, value in cand.items():
                    var = hole_by_name[name]
                    verifier.add(T.bv_eq(var, T.bv_const(value, var.width)))
                verdict = _checked(verifier, budget, retry_policy, stats,
                                   side="verification")
        stats.verify_time += time.monotonic() - started
        stats.verify_conflicts += verifier.conflicts - conflicts_before
        return verdict, verifier

    def guess(assumptions=()):
        """One guess-solver check; returns its verdict."""
        started = time.monotonic()
        with _obs.span("cegis.guess"):
            conflicts_before = guess_solver.conflicts
            verdict = _checked(guess_solver, budget, retry_policy, stats,
                               side="candidate search",
                               assumptions=assumptions)
        stats.guess_time += time.monotonic() - started
        stats.guess_conflicts += guess_solver.conflicts - conflicts_before
        return verdict

    def learn(verifier):
        """Constrain the guess solver by a SAT verify's counterexample;
        returns the counterexample's values."""
        model = verifier.model()
        cex_values = {
            var.name: _validated(model, var, side="verification")
            for var in forall_vars
        }
        counterexample = {
            var: T.bv_const(cex_values[var.name], var.width)
            for var in forall_vars
        }
        started = time.monotonic()
        with _obs.span("cegis.guess"):
            guess_solver.add(T.substitute(formula, counterexample))
        stats.guess_time += time.monotonic() - started
        return cex_values

    def least_unrefuted(var, cand):
        """The least value of ``var`` no counterexample refutes yet, with
        every other hole pinned to ``cand``.

        Descends ``var``'s bits MSB-first under assumptions on the guess
        solver.  ``cand`` itself satisfies every learned constraint, so
        its value is the first witness; a bit is only checked where the
        witness has it set, and each SAT answer becomes the new witness.
        """
        pinned = candidate_assumptions(
            hole_by_name,
            {name: value for name, value in cand.items()
             if name != var.name})
        witness = cand[var.name]
        decided = []
        for i in reversed(range(var.width)):
            bit = T.bv_extract(var, i, i)
            if (witness >> i) & 1 and guess(
                    pinned + decided + [T.bv_not(bit)]) is SAT:
                witness = _validated(guess_solver.model(), var,
                                     side="candidate search")
            decided.append(bit if (witness >> i) & 1 else T.bv_not(bit))
        return witness

    for _ in range(max_iterations):
        stats.iterations += 1
        _METRICS.inc("cegis.iterations")
        iteration_started = time.monotonic()
        with _iteration_timer(iteration_started), \
                _obs.span("cegis.iteration", n=stats.iterations):
            # -- verify -----------------------------------------------------
            verdict, verifier = verify_candidate(candidate)
            if verdict is UNSAT:
                if canonicalize:
                    conflicts_before = stats.conflicts
                    with _obs.span("cegis.polish"):
                        candidate = _lex_min_polish(
                            candidate, hole_vars, verify_candidate,
                            least_unrefuted, learn, stats)
                    stats.polish_conflicts += (stats.conflicts
                                               - conflicts_before)
                return dict(candidate)
            # -- guess ------------------------------------------------------
            cex_values = learn(verifier)
            _record_counterexample(cex_values, forall_vars, stats)
            if guess() is UNSAT:
                raise SynthesisFailure(
                    "no hole constants satisfy the specification; the "
                    "datapath sketch cannot implement this instruction"
                )
            model = guess_solver.model()
            candidate = {
                var.name: _validated(model, var, side="candidate search")
                for var in hole_vars
            }
    raise SynthesisTimeout(
        f"CEGIS did not converge within {max_iterations} iterations",
        reason="iterations",
    )


@contextlib.contextmanager
def _iteration_timer(started):
    # Charges the iteration's wall time to the process-wide latency
    # histogram even when the body returns or raises out of the loop.
    try:
        yield
    finally:
        _METRICS.observe("cegis.iteration", time.monotonic() - started)


def _record_counterexample(values, forall_vars, stats):
    """Record a failed verify's counterexample on the active tracer.

    The falsifying state is dumped as a single-timestep VCD under the
    trace's artifact directory, and the ``cegis.counterexample`` event
    carries the path — the bridge from "a verify query came back SAT" to
    "here is the waveform that refuted the candidate".  No tracer, no
    work; a VCD write failure degrades to an event without a path.
    """
    tracer = _obs.active_tracer()
    if tracer is None:
        return
    from repro.oyster import vcd as _vcd

    path = tracer.artifact_path(f"cex-iter{stats.iterations}.vcd")
    try:
        _vcd.write_counterexample_vcd(
            path, values, {var.name: var.width for var in forall_vars}
        )
    except OSError:
        path = None
    tracer.event("cegis.counterexample", iteration=stats.iterations,
                 vars=len(values), vcd=path)


def _lex_min_polish(candidate, hole_vars, verify_candidate,
                    least_unrefuted, learn, stats):
    """Canonicalize a verified candidate: each hole, in order, takes the
    least value that still verifies with the other holes held fixed.

    This is lexicographic-minimum CEGIS on the run's own guess solver,
    which already holds every counterexample.  ``least_unrefuted``
    proposes the least value they do not refute; if that is the current
    value the hole is done, else one ``verify_candidate`` check decides
    the trial — UNSAT means it is the least valid value, SAT yields a
    counterexample that ``learn`` adds before the next proposal.  Only
    truly invalid values are ever refuted, so the result equals an
    exhaustive upward scan's: forced holes keep their value, don't-care
    and partially-constrained holes land on their minimum whatever pick
    the search found, which makes the result pipeline-independent.  The
    valid set need not be contiguous (e.g. {0, 5}), which is why per-bit
    greedy clearing would not be canonical.  Polish is best-effort: a
    budget expiry or solver fault mid-polish keeps the already-verified
    candidate instead of failing the instruction.
    """
    candidate = dict(candidate)
    for var in hole_vars:
        while candidate[var.name]:
            try:
                least = least_unrefuted(var, candidate)
                if least == candidate[var.name]:
                    break
                trial = dict(candidate)
                trial[var.name] = least
                stats.polish_checks += 1
                verdict, verifier = verify_candidate(trial)
                if verdict is UNSAT:
                    candidate = trial
                    break
                learn(verifier)
            except (SynthesisTimeout, SolverUnknown):
                return candidate
    return candidate


def _checked(solver, budget, retry_policy, stats, side, assumptions=()):
    """One budgeted check with retry-with-escalation on retryable UNKNOWNs.

    Returns SAT/UNSAT; budget exhaustion surfaces as ``SynthesisTimeout``
    (with the exhausted cap as ``reason``) and non-budget UNKNOWNs as
    ``SolverUnknown`` once the retry policy gives up.  ``assumptions``
    scope to each attempt (the incremental verify path), so a reseeded
    retry replays them against the same persistent assertions.
    """
    def attempt_check(attempt):
        if attempt.index:
            stats.retries += 1
            _METRICS.inc("cegis.retries")
            _obs.event("cegis.retry", attempt=attempt.index, side=side,
                       max_conflicts=attempt.max_conflicts,
                       seed=attempt.seed)
            if attempt.seed is not None:
                solver.reseed(attempt.seed)
        verdict = solver.check(max_conflicts=attempt.max_conflicts,
                               budget=budget, assumptions=assumptions)
        if verdict == UNKNOWN:
            raise SolverUnknown(
                f"{side} returned unknown ({verdict.reason}) after "
                f"{stats.iterations} iterations",
                reason=verdict.reason,
            )
        return verdict

    try:
        return run_with_retry(attempt_check, retry_policy, budget=budget)
    except SynthesisTimeout:
        raise
    except BudgetExhausted as fault:
        # The budget itself tripped (pre-check or mid-solve): timeout.
        raise SynthesisTimeout(str(fault), reason=fault.reason) from fault
    except SolverUnknown as fault:
        if fault.reason in ("deadline", "memory"):
            raise SynthesisTimeout(str(fault), reason=fault.reason) from fault
        raise


def _validated(model, var, side):
    """Read ``var`` from ``model``, rejecting out-of-width garbage.

    A malformed assignment means the backend (or an injected fault) broke
    the encoding contract; surfacing it as :class:`MalformedModel` lets the
    engine degrade instead of synthesizing corrupt control logic.
    """
    value = model.value(var, warn=False)
    if not isinstance(value, int) or value < 0 or (value >> var.width):
        raise MalformedModel(
            f"{side} model assigns {var.name!r} = {value!r}, which does not "
            f"fit its {var.width}-bit width"
        )
    return value
