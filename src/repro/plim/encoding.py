"""Binary encoding of RM3 instructions for in-array program storage.

The PLiM computer is a von Neumann machine over a single resistive array:
"the PLiM controller ... read[s] instructions from the memory array"
(paper §2.2).  This module defines the bit-level instruction format that
:class:`repro.plim.controller.FetchingController` uses to store programs in
the array itself.

Format (little-endian bit order within one instruction)::

    [ a_tag | a_value(addr_bits) | b_tag | b_value(addr_bits) | z(addr_bits) ]

``*_tag`` = 1 marks a constant operand whose bit sits in the value field's
LSB; ``*_tag`` = 0 marks a cell read from ``value``.  An instruction
occupies ``2 + 3*addr_bits`` bits; ``addr_bits`` is chosen from the
machine's cell count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MachineError
from repro.plim.isa import Instruction, Operand
from repro.plim.program import Program


def address_bits_for(num_cells: int) -> int:
    """Address width needed for ``num_cells`` cells (at least 1)."""
    if num_cells < 1:
        raise MachineError("cannot encode programs for an empty array")
    return max(1, (num_cells - 1).bit_length())


def instruction_bits(addr_bits: int) -> int:
    """Bits occupied by one encoded instruction."""
    return 2 + 3 * addr_bits


def _encode_operand(operand: Operand, addr_bits: int) -> int:
    """Tag bit plus value field (tag is the LSB)."""
    if operand.is_const:
        return 1 | (operand.value << 1)
    if operand.value >= (1 << addr_bits):
        raise MachineError(
            f"cell address {operand.value} does not fit in {addr_bits} address bits"
        )
    return operand.value << 1


def _decode_operand(field: int, addr_bits: int) -> Operand:
    if field & 1:
        return Operand.const((field >> 1) & 1)
    return Operand.cell(field >> 1)


def encode_instruction(instruction: Instruction, addr_bits: int) -> int:
    """Pack one instruction into an integer of ``instruction_bits`` bits."""
    if instruction.z >= (1 << addr_bits):
        raise MachineError(
            f"destination {instruction.z} does not fit in {addr_bits} address bits"
        )
    field = addr_bits + 1
    word = _encode_operand(instruction.a, addr_bits)
    word |= _encode_operand(instruction.b, addr_bits) << field
    word |= instruction.z << (2 * field)
    return word


def decode_instruction(word: int, addr_bits: int) -> Instruction:
    """Inverse of :func:`encode_instruction` (comments are not stored)."""
    field = addr_bits + 1
    mask = (1 << field) - 1
    a = _decode_operand(word & mask, addr_bits)
    b = _decode_operand((word >> field) & mask, addr_bits)
    z = word >> (2 * field)
    return Instruction(a, b, z)


@dataclass(frozen=True)
class ProgramImage:
    """A program encoded as a flat bit vector for in-array storage."""

    bits: tuple[int, ...]
    addr_bits: int
    num_instructions: int

    @property
    def bits_per_instruction(self) -> int:
        return instruction_bits(self.addr_bits)

    def instruction_word(self, index: int) -> int:
        """The encoded word of instruction ``index``."""
        width = self.bits_per_instruction
        chunk = self.bits[index * width : (index + 1) * width]
        value = 0
        for i, bit in enumerate(chunk):
            value |= bit << i
        return value


def encode_program(program: Program, addr_bits: int | None = None) -> ProgramImage:
    """Encode a whole program; ``addr_bits`` defaults to fit its cells."""
    if addr_bits is None:
        addr_bits = address_bits_for(max(program.num_cells, 1))
    width = instruction_bits(addr_bits)
    bits: list[int] = []
    for instruction in program:
        word = encode_instruction(instruction, addr_bits)
        bits.extend((word >> i) & 1 for i in range(width))
    return ProgramImage(
        bits=tuple(bits), addr_bits=addr_bits, num_instructions=len(program)
    )
