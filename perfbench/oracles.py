"""Output oracles that never call the synthesizer.

* RISC-V cores: a seeded random program over the synthesized instruction
  subset runs on the completed core (``CompiledSimulator``) and on the
  golden ISS side by side; pc, register file and data memory must agree
  after every retired instruction.
* Service designs: each returned design is parsed from its text and
  co-simulated against the sketch completed with the hand-written
  reference control below, one instruction at a time, from random
  pre-states in which that instruction decodes.
"""

from __future__ import annotations

from repro.designs.riscv.encodings import INSTRUCTIONS, assemble
from repro.designs.riscv.iss import GoldenISS
from repro.oyster.compiled import CompiledSimulator

_LOADS_STORES = {"lb", "lh", "lw", "lbu", "lhu", "sb", "sh", "sw"}
_DATA_BASE_WORD = 512  # data window sits above any program image
_DATA_WORDS = 32

#: accumulator instruction -> reference hole values.  States are the
#: spec's encodings (RESET=0, GO=1, STOP=2); the ``with state == ??``
#: blocks are priority-ordered clear, accumulate, hold, so every guard
#: that must not fire is given a state other than the current one.
ACCUMULATOR_REFERENCE = {
    "reset_instr": {"state_next": 0, "s_clear": 2, "s_accumulate": 0,
                    "s_hold": 1},
    "go_start": {"state_next": 1, "s_clear": 2, "s_accumulate": 0,
                 "s_hold": 1},
    "go_continue": {"state_next": 1, "s_clear": 2, "s_accumulate": 1,
                    "s_hold": 0},
    "stop_instr": {"state_next": 2, "s_clear": 0, "s_accumulate": 0,
                   "s_hold": 1},
}

#: accumulator instruction -> (pre-state, forced inputs) making it decode
_ACCUMULATOR_DECODE = {
    "reset_instr": ({"state": 2}, {"reset": 1}),
    "go_start": ({"state": 0}, {"go": 1}),
    "go_continue": ({"state": 1}, {"stop": 0}),
    "stop_instr": ({"state": 1}, {"stop": 1}),
}


def random_program(rng, names, length):
    """A terminating random program using every name at least twice.

    Branches and jumps only go forward, to at most the end of the
    program; ``jalr`` jumps through ``x0`` to an absolute target.  ``x1``
    holds the data window base and is never written.
    """
    body = [name for name in names for _ in range(2)]
    body += [rng.choice(names) for _ in range(max(0, length - len(body)))]
    rng.shuffle(body)
    size = len(body)
    program = []
    for index, name in enumerate(body):
        fmt = INSTRUCTIONS[name].fmt
        hop = 4 * rng.randint(1, min(4, size - index))
        kwargs = {"rd": rng.choice([0] + list(range(2, 32))),
                  "rs1": rng.randrange(32), "rs2": rng.randrange(32)}
        if name in _LOADS_STORES:
            kwargs["rs1"] = 1
            kwargs["imm"] = rng.randrange(0, 4 * _DATA_WORDS - 4)
        elif fmt == "B" or name == "jal":
            kwargs["imm"] = hop
        elif name == "jalr":
            kwargs["rs1"] = 0
            kwargs["imm"] = 4 * index + hop
        elif fmt == "I":
            kwargs["imm"] = rng.randrange(-2048, 2048)
        elif fmt == "I-SHAMT":
            kwargs["imm"] = rng.randrange(32)
        elif fmt == "U":
            kwargs["imm"] = rng.randrange(1 << 32) & 0xFFFFF000
        program.append((name, kwargs))
    return program


def _cosimulate(design, program, rng):
    """Run ``program`` on a single-cycle core and the ISS; failing names."""
    words = assemble(program)
    data = {_DATA_BASE_WORD + i: rng.randrange(1 << 32)
            for i in range(_DATA_WORDS)}
    regs = {i: rng.randrange(1 << 32) for i in range(2, 32)}
    regs[1] = _DATA_BASE_WORD * 4
    iss = GoldenISS(memory={**words, **data}, pc=0, regs=regs)
    sim = CompiledSimulator(
        design, memory_init={"i_mem": dict(words), "d_mem": dict(data),
                             "rf": dict(regs)},
        register_init={"pc": 0})
    end_pc = 4 * len(program)
    for _ in range(4 * len(program)):
        if iss.pc == end_pc:
            return set()
        name = iss.step()
        sim.step({})
        if sim.peek("pc") != iss.pc:
            return {name}
        for reg in range(32):
            if sim.peek_memory("rf", reg) != iss.regs[reg]:
                return {name}
        for word in data:
            if sim.peek_memory("d_mem", word) != iss.memory.get(word, 0):
                return {name}
    return {"<did not terminate>"}


def check_riscv(design, names, rng, programs=4, length=48):
    """Co-simulate ``programs`` random programs; return failing names."""
    failed = set()
    for _ in range(programs):
        failed |= _cosimulate(design, random_program(rng, names, length),
                              rng)
    return failed


def _accumulator_case(rng, instruction):
    state, forced = _ACCUMULATOR_DECODE[instruction]
    registers = {"acc": rng.randrange(256), **state}
    inputs = {"reset": rng.randrange(2), "go": rng.randrange(2),
              "stop": rng.randrange(2), "val": rng.randrange(4), **forced}
    return registers, {}, [inputs], ("acc", "state"), ()


def _alu_case(rng, instruction):
    from repro.designs.alu_machine import OPCODES

    inputs = {"op": OPCODES[instruction], "dest": rng.randrange(4),
              "src1": rng.randrange(4), "src2": rng.randrange(4)}
    regfile = {addr: rng.randrange(256) for addr in range(4)}
    # Three cycles: read, execute, write back (the alpha's ``cycles: 3``).
    return {}, {"regfile": regfile}, [inputs] * 3, (), range(4)


def check_service_design(design_name, instructions, design, rng, trials=8):
    """Co-simulate one returned design against the reference control.

    Returns ``(ok, hole_values)`` where ``hole_values`` maps each
    instruction to the control values the returned design drove while
    it executed (read from the design, not from the synthesizer).
    """
    if design_name == "accumulator":
        from repro.designs.accumulator import build_sketch

        reference, make_case = ACCUMULATOR_REFERENCE, _accumulator_case
    else:
        from repro.designs.alu_machine import (
            REFERENCE_HOLE_VALUES,
            build_sketch,
        )

        reference, make_case = REFERENCE_HOLE_VALUES, _alu_case
    sketch = build_sketch()
    hole_names = [hole.name for hole in sketch.holes]
    hole_values = {}
    for instruction in instructions:
        for _ in range(trials):
            registers, memories, inputs, regs_out, mem_out = make_case(
                rng, instruction)
            got = CompiledSimulator(design, memory_init=memories,
                                    register_init=registers)
            want = CompiledSimulator(sketch, reference[instruction],
                                     memory_init=memories,
                                     register_init=registers)
            for cycle, step_inputs in enumerate(inputs):
                got.step(step_inputs)
                want.step(step_inputs)
                if cycle == 0:
                    hole_values[instruction] = {
                        name: got.peek(name) for name in hole_names}
            if any(got.peek(r) != want.peek(r) for r in regs_out):
                return False, hole_values
            if any(got.peek_memory("regfile", a)
                   != want.peek_memory("regfile", a) for a in mem_out):
                return False, hole_values
    return True, hole_values
