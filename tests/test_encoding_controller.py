"""Tests for instruction encoding and the fetching controller."""

import pytest

from repro.core.pipeline import compile_mig
from repro.errors import MachineError
from repro.plim.controller import FetchingController
from repro.plim.encoding import (
    ProgramImage,
    address_bits_for,
    decode_instruction,
    encode_instruction,
    encode_program,
    instruction_bits,
)
from repro.plim.isa import Instruction, ONE, Operand, ZERO
from repro.plim.machine import PlimMachine

from conftest import random_mig


class TestEncoding:
    def test_address_bits(self):
        assert address_bits_for(1) == 1
        assert address_bits_for(2) == 1
        assert address_bits_for(3) == 2
        assert address_bits_for(256) == 8
        assert address_bits_for(257) == 9
        with pytest.raises(MachineError):
            address_bits_for(0)

    def test_instruction_bits(self):
        assert instruction_bits(8) == 26

    @pytest.mark.parametrize(
        "instruction",
        [
            Instruction(ZERO, ONE, 0),
            Instruction(ONE, ZERO, 255),
            Instruction(Operand.cell(3), Operand.cell(200), 17),
            Instruction(Operand.cell(0), ONE, 1),
        ],
    )
    def test_roundtrip(self, instruction):
        word = encode_instruction(instruction, 8)
        assert word < (1 << instruction_bits(8))
        back = decode_instruction(word, 8)
        assert back.a == instruction.a
        assert back.b == instruction.b
        assert back.z == instruction.z

    def test_address_overflow_rejected(self):
        with pytest.raises(MachineError):
            encode_instruction(Instruction(Operand.cell(300), ZERO, 0), 8)
        with pytest.raises(MachineError):
            encode_instruction(Instruction(ZERO, ONE, 300), 8)

    def test_program_roundtrip(self):
        mig = random_mig(1, num_pis=4, num_gates=15)
        program = compile_mig(mig).program
        image = encode_program(program)
        decoded = [
            decode_instruction(image.instruction_word(i), image.addr_bits)
            for i in range(image.num_instructions)
        ]
        assert len(decoded) == len(program)
        for original, back in zip(program, decoded):
            assert (original.a, original.b, original.z) == (back.a, back.b, back.z)

    def test_image_geometry(self):
        mig = random_mig(2, num_pis=3, num_gates=8)
        program = compile_mig(mig).program
        image = encode_program(program)
        assert len(image.bits) == image.num_instructions * image.bits_per_instruction
        assert set(image.bits) <= {0, 1}


class TestFetchingController:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_direct_execution(self, seed):
        """The von Neumann machine computes what direct execution computes."""
        mig = random_mig(seed + 30, num_pis=4, num_gates=20)
        program = compile_mig(mig).program
        inputs = {name: (seed >> i) & 1 for i, name in enumerate(mig.pi_names())}

        direct = PlimMachine.for_program(program).run_program(program, inputs)
        fetched = FetchingController(program).run(inputs)
        assert fetched == direct

    def test_program_stored_in_array(self):
        mig = random_mig(5, num_pis=3, num_gates=10)
        program = compile_mig(mig).program
        controller = FetchingController(program)
        # The code region holds exactly the encoded image.
        stored = [
            controller.machine.read(controller.code_base + i)
            for i in range(len(controller.image.bits))
        ]
        assert tuple(stored) == controller.image.bits

    def test_cycle_accounting(self):
        mig = random_mig(6, num_pis=3, num_gates=10)
        program = compile_mig(mig).program
        controller = FetchingController(program)
        controller.run({name: 0 for name in mig.pi_names()})
        n = len(program)
        assert controller.execute_cycles == 3 * n
        assert controller.fetch_cycles == n * controller.image.bits_per_instruction
        assert controller.total_cycles == controller.fetch_cycles + 3 * n

    def test_halts_exactly_once(self):
        mig = random_mig(7, num_pis=3, num_gates=6)
        program = compile_mig(mig).program
        controller = FetchingController(program)
        controller.load_inputs({name: 1 for name in mig.pi_names()})
        steps = 0
        while controller.step():
            steps += 1
        assert steps == len(program)
        assert controller.halted
        assert not controller.step()

    def test_code_region_protected(self):
        """A stored instruction whose destination decodes into the code
        region must be refused (self-modifying programs are not modelled)."""
        from repro.plim.program import Program

        program = Program(input_cells={"a": 0, "b": 1})
        program.register_work_cell(2)
        program.append(Instruction(ZERO, ONE, 2))
        program.set_output("f", 2)
        controller = FetchingController(program)
        # data_cells = 3, addr_bits = 2 → z = 3 is encodable but points at
        # the first code cell.  Poke the stored z field of instruction 0.
        addr_bits = controller.image.addr_bits
        assert controller.data_cells < (1 << addr_bits)
        z_offset = 2 * (addr_bits + 1)
        for i in range(addr_bits):
            controller.machine.write(
                controller.code_base + z_offset + i,
                (controller.data_cells >> i) & 1,
            )
        controller.load_inputs({"a": 0, "b": 0})
        with pytest.raises(MachineError):
            controller.step()

    def test_repr(self):
        mig = random_mig(9, num_pis=3, num_gates=5)
        program = compile_mig(mig).program
        assert "data cells" in repr(FetchingController(program))
