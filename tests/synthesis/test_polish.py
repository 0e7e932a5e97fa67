"""Candidate canonicalization (polish) against an exhaustive-scan oracle.

Polish runs lexicographic-minimum CEGIS on the guess solver: it proposes
the least hole value no counterexample refutes yet and verifies only
that one.  Its result must equal the plain definition — for each hole
in order, scan every smaller value upward with a fresh substitution
solve and keep the first that verifies — which the oracle below
implements independently of the synthesis code.
"""

import pytest

from repro.designs import accumulator, alu_machine, riscv
from repro.runtime import Budget
from repro.smt import terms as T
from repro.smt.backends import SolverConfig
from repro.smt.solver import Solver, UNSAT
from repro.synthesis import cegis, per_instruction, synthesize
from repro.synthesis.cegis import CegisStats, cegis_solve

PIPELINES = ["fresh", "incremental"]


def _valid(formula, hole_vars, values):
    solver = Solver()
    solver.add(T.bv_not(T.substitute(formula, {
        var: T.bv_const(values[var.name], var.width) for var in hole_vars
    })))
    return solver.check() is UNSAT


def scan_oracle(formula, hole_vars, start):
    """Each hole, in order, takes the first value from 0 up that verifies
    with the other holes held at their current values."""
    candidate = dict(start)
    for var in hole_vars:
        for value in range(candidate[var.name]):
            trial = dict(candidate)
            trial[var.name] = value
            if _valid(formula, hole_vars, trial):
                candidate = trial
                break
    return candidate


@pytest.fixture
def polish_calls(monkeypatch):
    """Record every per-instruction CEGIS run: formula, holes, the
    converged candidate polish started from, and the returned values."""
    calls = []
    real_solve = per_instruction.cegis_solve
    real_polish = cegis._lex_min_polish

    def solve(formula, hole_vars, **kwargs):
        calls.append({"formula": formula, "hole_vars": hole_vars})
        calls[-1]["result"] = real_solve(formula, hole_vars, **kwargs)
        return calls[-1]["result"]

    def polish(candidate, *args):
        calls[-1]["start"] = dict(candidate)
        return real_polish(candidate, *args)

    monkeypatch.setattr(per_instruction, "cegis_solve", solve)
    monkeypatch.setattr(cegis, "_lex_min_polish", polish)
    return calls


PROBLEMS = {
    "accumulator": accumulator.build_problem,
    "alu_machine": alu_machine.build_problem,
    "rv32i_sc": lambda: riscv.build_problem(
        "RV32I", "single_cycle", instructions=["add", "addi", "lui"]),
}


@pytest.mark.parametrize("pipeline", PIPELINES)
@pytest.mark.parametrize("design", sorted(PROBLEMS))
def test_synthesized_holes_equal_scan_oracle(polish_calls, design,
                                             pipeline):
    problem = PROBLEMS[design]()
    result = synthesize(problem, timeout=300,
                        config=SolverConfig(pipeline=pipeline))
    assert len(polish_calls) == len(result.per_instruction)
    for call, solution in zip(polish_calls, result.per_instruction):
        expected = scan_oracle(call["formula"], call["hole_vars"],
                               call["start"])
        assert call["result"] == expected, solution.instruction_name
        assert solution.hole_values == {
            hole.name: expected[var.name]
            for hole, var in zip(problem.sketch.holes, call["hole_vars"])
        }


def _gapped_formula():
    """∃h ∀x with h's valid set {5, 9} on 4 bits.

    x = 0 refutes exactly {0, 1, 2}; x = 1 refutes every other value
    outside {5, 9}.  Neither counterexample alone pins the least valid
    value, so the descent needs two refutations to reach 5.
    """
    h = T.bv_var("gap!h", 4)
    x = T.bv_var("gap!x", 4)

    def const(value):
        return T.bv_const(value, 4)

    formula = T.and_(
        T.implies(T.bv_eq(x, const(0)), T.bv_uge(h, const(3))),
        T.implies(T.bv_eq(x, const(1)),
                  T.or_(T.bv_eq(h, const(5)), T.bv_eq(h, const(9)),
                        T.bv_ult(h, const(3)))),
    )
    return formula, h


@pytest.mark.parametrize("incremental", [False, True])
def test_non_contiguous_valid_set_needs_two_refutations(incremental):
    formula, h = _gapped_formula()
    stats = CegisStats()
    # The start value verifies at once, so polish begins with no
    # counterexamples: it proposes 0, then 3, then 5.
    values = cegis_solve(formula, [h], initial_candidate={h.name: 9},
                         stats=stats, incremental=incremental)
    assert values == {h.name: 5}
    assert values == scan_oracle(formula, [h], {h.name: 9})
    assert stats.iterations == 1
    assert stats.polish_checks == 3  # two refuted trials, then 5 verifies


@pytest.mark.parametrize("incremental", [False, True])
def test_budget_expiring_mid_polish_keeps_verified_candidate(
        monkeypatch, incremental):
    formula, h = _gapped_formula()
    now = [0.0]
    budget = Budget(timeout=10.0, clock=lambda: now[0])
    real_polish = cegis._lex_min_polish

    def polish(candidate, hole_vars, verify_candidate, *args):
        def verify_then_expire(trial):
            verdict = verify_candidate(trial)
            now[0] = 100.0  # the deadline passes after the first trial
            return verdict
        return real_polish(candidate, hole_vars, verify_then_expire, *args)

    monkeypatch.setattr(cegis, "_lex_min_polish", polish)
    stats = CegisStats()
    values = cegis_solve(formula, [h], initial_candidate={h.name: 9},
                         stats=stats, budget=budget, incremental=incremental)
    assert values == {h.name: 9}
    assert stats.polish_checks == 1
