"""Unit tests for repro.plim.machine (the PLiM architecture model)."""

import pytest

from repro.errors import MachineError
from repro.plim.isa import Instruction, ONE, Operand, ZERO
from repro.plim.machine import PlimMachine
from repro.plim.program import MAX_CELLS, Program


@pytest.fixture
def machine():
    return PlimMachine(num_cells=8)


class TestRamMode:
    def test_read_write(self, machine):
        machine.write(3, 1)
        assert machine.read(3) == 1

    def test_write_requires_ram_mode(self, machine):
        machine.set_lim(True)
        with pytest.raises(MachineError):
            machine.write(0, 1)

    def test_address_bounds(self, machine):
        with pytest.raises(MachineError):
            machine.read(8)
        with pytest.raises(MachineError):
            machine.write(-1, 0)

    def test_construction_validation(self):
        with pytest.raises(MachineError):
            PlimMachine(-1)
        with pytest.raises(MachineError):
            PlimMachine(4, width=0)

    def test_cell_cap(self):
        """A program built through the API cannot size a huge array."""
        program = Program(input_cells={"a": 0})
        program.append(Instruction(Operand.cell(0), ZERO, MAX_CELLS))
        with pytest.raises(MachineError, match="num_cells"):
            PlimMachine.for_program(program)


class TestLimMode:
    def test_execute_requires_lim(self, machine):
        with pytest.raises(MachineError):
            machine.execute(Instruction(ZERO, ONE, 0))

    def test_rm3_updates_destination(self, machine):
        machine.write(0, 1)  # A cell
        machine.write(2, 1)  # Z cell
        machine.set_lim(True)
        # Z <- <A=cells[0], ¬B=¬0=1, Z=1> = 1
        result = machine.execute(Instruction(Operand.cell(0), ZERO, 2))
        assert result == 1
        assert machine.read(2) == 1

    def test_reset_and_set_idioms(self, machine):
        machine.set_lim(True)
        machine.execute(Instruction(ONE, ZERO, 5))
        assert machine.cells[5] == 1
        machine.execute(Instruction(ZERO, ONE, 5))
        assert machine.cells[5] == 0

    def test_load_idiom(self, machine):
        machine.write(1, 1)
        machine.set_lim(True)
        machine.execute(Instruction(ZERO, ONE, 4))  # clear
        machine.execute(Instruction(Operand.cell(1), ZERO, 4))  # load
        assert machine.cells[4] == 1

    def test_inverted_load_idiom(self, machine):
        machine.write(1, 1)
        machine.set_lim(True)
        machine.execute(Instruction(ZERO, ONE, 4))
        machine.execute(Instruction(ONE, Operand.cell(1), 4))
        assert machine.cells[4] == 0

    def test_destination_supplies_old_value(self, machine):
        """Z participates in the majority with its pre-write value."""
        machine.write(0, 0)
        machine.write(1, 1)
        machine.write(2, 1)  # old Z = 1
        machine.set_lim(True)
        # <A=0, ¬B=0, Z=1> = 0 — result depends on old Z
        machine.execute(Instruction(Operand.cell(0), Operand.cell(1), 2))
        assert machine.read(2) == 0

    def test_counters(self, machine):
        machine.set_lim(True)
        machine.execute(Instruction(ONE, ZERO, 0))
        machine.execute(Instruction(ONE, ZERO, 0))
        assert machine.instruction_count == 2
        assert machine.cycle_count == 6


class TestEnduranceCounters:
    def test_write_counts_every_pulse(self, machine):
        machine.set_lim(True)
        machine.execute(Instruction(ONE, ZERO, 3))
        machine.execute(Instruction(ONE, ZERO, 3))  # same value again
        assert machine.write_counts[3] == 2

    def test_flip_counts_only_changes(self, machine):
        machine.set_lim(True)
        machine.execute(Instruction(ONE, ZERO, 3))  # 0 -> 1: flip
        machine.execute(Instruction(ONE, ZERO, 3))  # 1 -> 1: no flip
        machine.execute(Instruction(ZERO, ONE, 3))  # 1 -> 0: flip
        assert machine.flip_counts[3] == 2

    def test_ram_writes_counted(self, machine):
        machine.write(1, 1)
        assert machine.write_counts[1] == 1


class TestBitParallel:
    def test_packed_execution(self):
        machine = PlimMachine(4, width=4)
        machine.write(0, 0b1100)
        machine.write(1, 0b1010)
        machine.set_lim(True)
        machine.execute(Instruction(ZERO, ONE, 2))
        machine.execute(Instruction(Operand.cell(0), ZERO, 2))
        # cell2 = cell0
        assert machine.read(2) == 0b1100
        machine.execute(Instruction(Operand.cell(1), ZERO, 3))  # z=0 -> and-ish
        assert machine.read(3) == 0b1010 & machine.mask

    def test_const_operands_widened(self):
        machine = PlimMachine(2, width=8)
        machine.set_lim(True)
        machine.execute(Instruction(ONE, ZERO, 0))
        assert machine.read(0) == 0xFF


class TestProgramExecution:
    def make_program(self):
        program = Program(input_cells={"a": 0, "b": 1}, name="and")
        program.register_work_cell(2)
        program.append(Instruction(ZERO, ONE, 2))  # X <- 0
        # X <- <a, ¬0=1, 0> = a ... then <b,...> to AND:
        program.append(Instruction(Operand.cell(0), ZERO, 2))  # X <- a
        program.append(Instruction(Operand.cell(1), ONE, 2))  # X <- <b, 0, a> = b AND a
        program.set_output("f", 2)
        return program

    def test_run_program(self):
        program = self.make_program()
        for a in (0, 1):
            for b in (0, 1):
                machine = PlimMachine.for_program(program)
                out = machine.run_program(program, {"a": a, "b": b})
                assert out["f"] == (a & b)

    def test_inverted_output_location(self):
        program = self.make_program()
        program.set_output("g", 2, inverted=True)
        machine = PlimMachine.for_program(program)
        out = machine.run_program(program, {"a": 1, "b": 1})
        assert out["f"] == 1 and out["g"] == 0

    def test_missing_input_rejected(self):
        program = self.make_program()
        machine = PlimMachine.for_program(program)
        with pytest.raises(MachineError):
            machine.load_inputs(program, {"a": 1})

    def test_for_program_sizes_machine(self):
        program = self.make_program()
        assert len(PlimMachine.for_program(program).cells) == 3

    def test_run_restores_lim_mode(self):
        program = self.make_program()
        machine = PlimMachine.for_program(program)
        machine.load_inputs(program, {"a": 0, "b": 1})
        machine.run(program)
        assert not machine.lim_enabled
