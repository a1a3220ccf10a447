"""Executable model of the PLiM architecture (paper Fig. 2).

The machine is an RRAM array wrapped by a controller.  With ``LiM = 0`` the
array behaves as a standard RAM (read/write); with ``LiM = 1`` the
controller executes RM3 instructions: per instruction it reads operands
``A`` and ``B`` (from constants or from the array), then performs the write
``Z ← ⟨A, ¬B, Z⟩`` in place at the destination cell.

The model is *bit-parallel*: each cell stores a ``width``-bit integer whose
bit ``p`` is the cell's value in an independent evaluation universe ``p``.
``width=1`` is the physical machine; verification uses wide words to run
thousands of input patterns per pass.  Endurance accounting (device writes
and actual value flips per cell) is independent of width — one RM3 is one
programming pulse on one cell regardless of how many universes we simulate.

Program execution has three kernels sharing exact semantics (outputs,
write/flip counts, instruction and cycle counters):

* ``"object"`` — the original one-:class:`Instruction`-at-a-time
  interpreter (:meth:`PlimMachine.execute` in a loop); the differential
  oracle.
* ``"plan"`` — a per-program :class:`_ExecPlan` (the
  ``simulate._SimPlan`` pattern): operand resolution precomputed into flat
  index triples, cached on program identity, driving a tight list-based
  big-int loop.
* ``"numpy"`` — a chunked uint64 matrix kernel; each cell is a row of
  64-bit words.  It is only ever an explicit choice (an independent
  second engine for cross-checks): five ufunc dispatches per instruction
  make it slower than ``"plan"`` at every width measured, from 2^10 to
  2^20 patterns.

``kernel="auto"`` (the default) is ``"plan"``.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.errors import MachineError
from repro.plim.isa import Instruction, Operand, rm3
from repro.plim.program import MAX_CELLS, Program
from repro.utils.bits import full_mask

try:  # pragma: no cover - exercised via the numpy kernel tests
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image ships numpy
    _np = None

KERNELS = ("auto", "object", "plan", "numpy")


class _ExecPlan:
    """Pre-resolved operands of one program, cached on program identity.

    ``ops`` holds one ``(a, b, z)`` triple per instruction where ``a`` and
    ``b`` are cell addresses or the negative constant sentinels ``-1``
    (constant 0) / ``-2`` (constant 1); binding maps the sentinels onto two
    constant slots appended after the machine's cells.
    """

    __slots__ = ("ops", "max_addr")

    def __init__(self, program: Program):
        ops: list[tuple[int, int, int]] = []
        max_addr = -1
        for a_enc, b_enc, z in zip(program._enc_a, program._enc_b, program._dst):
            if a_enc & 1:
                a = -1 - (a_enc >> 1)
            else:
                a = a_enc >> 1
                if a > max_addr:
                    max_addr = a
            if b_enc & 1:
                b = -1 - (b_enc >> 1)
            else:
                b = b_enc >> 1
                if b > max_addr:
                    max_addr = b
            if z > max_addr:
                max_addr = z
            ops.append((a, b, z))
        self.ops = ops
        self.max_addr = max_addr


def _plan_for(program: Program) -> _ExecPlan:
    """The program's cached execution plan (rebuilt after appends)."""
    key = (len(program), program.version)
    plan = getattr(program, "_exec_plan", None)
    if plan is not None and getattr(program, "_exec_plan_key", None) == key:
        return plan
    plan = _ExecPlan(program)
    program._exec_plan = plan
    program._exec_plan_key = key
    return plan


class PlimMachine:
    """RRAM array + controller with LiM and RAM operating modes."""

    def __init__(self, num_cells: int, width: int = 1, kernel: str = "auto"):
        if not 0 <= num_cells <= MAX_CELLS:
            raise MachineError(
                f"num_cells must be in [0, {MAX_CELLS}], got {num_cells}"
            )
        if width < 1:
            raise MachineError(f"width must be positive, got {width}")
        if kernel not in KERNELS:
            raise MachineError(
                f"unknown kernel {kernel!r}; expected one of {KERNELS}"
            )
        self.width = width
        self.mask = full_mask(width)
        self.kernel = kernel
        self.cells: list[int] = [0] * num_cells
        self.lim_enabled = False
        #: programming pulses per cell (every RM3/RAM write counts once)
        self.write_counts: list[int] = [0] * num_cells
        #: writes that actually changed the stored value
        self.flip_counts: list[int] = [0] * num_cells
        #: executed RM3 instructions
        self.instruction_count = 0
        #: controller cycles: read A, read B, write Z per RM3 (3 per instr)
        self.cycle_count = 0
        #: (plan, bound ops) of the last program run on this machine
        self._bound: Optional[tuple[_ExecPlan, list[tuple[int, int, int]]]] = None

    # ------------------------------------------------------------------
    # RAM mode
    # ------------------------------------------------------------------

    def read(self, address: int) -> int:
        """RAM-mode read of one cell."""
        self._check_address(address)
        return self.cells[address]

    def write(self, address: int, value: int) -> None:
        """RAM-mode write of one cell (counts as a programming pulse)."""
        if self.lim_enabled:
            raise MachineError("RAM write while LiM mode is active")
        self._check_address(address)
        value &= self.mask
        self._program_cell(address, value)

    # ------------------------------------------------------------------
    # LiM mode
    # ------------------------------------------------------------------

    def set_lim(self, enabled: bool) -> None:
        """Toggle logic-in-memory mode."""
        self.lim_enabled = bool(enabled)

    def execute(self, instruction: Instruction) -> int:
        """Execute one RM3 instruction; returns the value written to Z."""
        if not self.lim_enabled:
            raise MachineError("RM3 execution requires LiM mode (set_lim(True))")
        self._check_address(instruction.z)
        a = self._load_operand(instruction.a)
        not_b = self._load_operand(instruction.b) ^ self.mask
        z_old = self.cells[instruction.z]
        result = rm3(a, not_b, z_old) & self.mask
        self._program_cell(instruction.z, result)
        self.instruction_count += 1
        self.cycle_count += 3  # read A, read B, write Z
        return result

    def run(
        self,
        program: Program | Iterable[Instruction],
        kernel: Optional[str] = None,
    ) -> None:
        """Execute a whole program (or raw instruction sequence) in LiM mode.

        ``kernel`` overrides the machine's kernel for this run; raw
        instruction sequences always go through the object interpreter.
        """
        was_lim = self.lim_enabled
        self.set_lim(True)
        if not isinstance(program, Program):
            for instruction in program:
                self.execute(instruction)
            self.set_lim(was_lim)
            return
        chosen = kernel if kernel is not None else self.kernel
        if chosen not in KERNELS:
            raise MachineError(
                f"unknown kernel {chosen!r}; expected one of {KERNELS}"
            )
        if chosen == "numpy" and _np is None:
            raise MachineError("numpy kernel requested but numpy is not available")
        if chosen == "object":
            for instruction in program.instructions:
                self.execute(instruction)
        elif chosen == "numpy":
            self._run_numpy(program)
        else:  # "plan", which "auto" always means
            self._run_plan(program)
        self.set_lim(was_lim)

    # ------------------------------------------------------------------
    # compiled kernels
    # ------------------------------------------------------------------

    def _bound_ops(self, plan: _ExecPlan) -> list[tuple[int, int, int]]:
        """Plan ops with constant sentinels bound to this machine's slots."""
        bound = self._bound
        if bound is not None and bound[0] is plan:
            return bound[1]
        n = len(self.cells)  # const 0 lives at n, const 1 at n + 1
        ops = [
            (a if a >= 0 else n - 1 - a, b if b >= 0 else n - 1 - b, z)
            for a, b, z in plan.ops
        ]
        self._bound = (plan, ops)
        return ops

    def _checked_plan(self, program: Program) -> _ExecPlan:
        plan = _plan_for(program)
        if plan.max_addr >= len(self.cells):
            raise MachineError(
                f"cell address {plan.max_addr} out of range "
                f"(array has {len(self.cells)} cells)"
            )
        return plan

    def _run_plan(self, program: Program) -> None:
        """Big-int kernel: one tight loop over pre-resolved operand triples."""
        plan = self._checked_plan(program)
        ops = self._bound_ops(plan)
        mask = self.mask
        n = len(self.cells)
        buf = self.cells + [0, mask]
        write_counts = self.write_counts
        flip_counts = self.flip_counts
        for a_i, b_i, z in ops:
            a = buf[a_i]
            not_b = buf[b_i] ^ mask
            old = buf[z]
            result = (a & not_b) | ((a | not_b) & old)
            if result != old:
                buf[z] = result
                flip_counts[z] += 1
            write_counts[z] += 1
        del buf[n:]
        self.cells = buf
        self.instruction_count += len(ops)
        self.cycle_count += 3 * len(ops)

    def _run_numpy(self, program: Program) -> None:
        """Chunked uint64 kernel: each cell is a row of 64-bit words."""
        np = _np
        plan = self._checked_plan(program)
        ops = self._bound_ops(plan)
        n = len(self.cells)
        words = (self.width + 63) >> 6
        nbytes = words * 8
        mem = np.zeros((n + 2, words), dtype=np.uint64)
        for i, value in enumerate(self.cells):
            if value:
                mem[i] = np.frombuffer(value.to_bytes(nbytes, "little"), dtype=np.uint64)
        mem[n + 1] = np.frombuffer(self.mask.to_bytes(nbytes, "little"), dtype=np.uint64)
        mask_row = mem[n + 1]
        write_counts = self.write_counts
        flip_counts = self.flip_counts
        t_not_b = np.empty(words, dtype=np.uint64)
        t_or = np.empty(words, dtype=np.uint64)
        for a_i, b_i, z in ops:
            a = mem[a_i]
            old = mem[z]
            np.bitwise_xor(mem[b_i], mask_row, out=t_not_b)
            np.bitwise_or(a, t_not_b, out=t_or)  # a | ¬b
            np.bitwise_and(t_not_b, a, out=t_not_b)  # a & ¬b
            np.bitwise_and(t_or, old, out=t_or)  # (a | ¬b) & old
            np.bitwise_or(t_not_b, t_or, out=t_not_b)  # the RM3 result
            if not np.array_equal(t_not_b, old):
                old[:] = t_not_b
                flip_counts[z] += 1
            write_counts[z] += 1
        for i in range(n):
            self.cells[i] = int.from_bytes(mem[i].tobytes(), "little")
        self.instruction_count += len(ops)
        self.cycle_count += 3 * len(ops)

    # ------------------------------------------------------------------
    # program-level convenience
    # ------------------------------------------------------------------

    @classmethod
    def for_program(
        cls, program: Program, width: int = 1, kernel: str = "auto"
    ) -> "PlimMachine":
        """Machine sized to fit every cell a program touches."""
        return cls(max(program.num_cells, 1), width=width, kernel=kernel)

    def load_inputs(self, program: Program, values: dict[str, int]) -> None:
        """RAM-mode load of the program's input cells from ``values``."""
        for name, address in program.input_cells.items():
            try:
                self.write(address, values[name])
            except KeyError:
                raise MachineError(f"no value provided for input {name!r}") from None

    def read_outputs(self, program: Program) -> dict[str, int]:
        """Read the program's outputs, honouring polarity flags."""
        outputs: dict[str, int] = {}
        for name, location in program.output_cells.items():
            value = self.read(location.cell)
            if location.inverted:
                value ^= self.mask
            outputs[name] = value
        return outputs

    def run_program(self, program: Program, inputs: dict[str, int]) -> dict[str, int]:
        """Load inputs, run in LiM mode, read outputs."""
        self.load_inputs(program, inputs)
        self.run(program)
        return self.read_outputs(program)

    # ------------------------------------------------------------------

    def _load_operand(self, operand: Operand) -> int:
        if operand.is_const:
            return self.mask if operand.value else 0
        self._check_address(operand.value)
        return self.cells[operand.value]

    def _program_cell(self, address: int, value: int) -> None:
        if self.cells[address] != value:
            self.flip_counts[address] += 1
        self.cells[address] = value
        self.write_counts[address] += 1

    def _check_address(self, address: int) -> None:
        if not 0 <= address < len(self.cells):
            raise MachineError(
                f"cell address {address} out of range (array has {len(self.cells)} cells)"
            )

    def __repr__(self) -> str:
        mode = "LiM" if self.lim_enabled else "RAM"
        return (
            f"<PlimMachine: {len(self.cells)} cells x {self.width} bit(s), "
            f"mode={mode}, executed={self.instruction_count}>"
        )
