"""Control-oriented EPFL benchmarks: dec, priority, int2float, voter,
ctrl, router.

``dec``, ``priority``, ``int2float`` and ``voter`` are exact functional
re-implementations.  ``ctrl`` (a RISC-style control decoder) and ``router``
(an XY route-compute + arbitration unit) rebuild the same *family* of logic
at the paper's exact I/O signatures — the original netlists are not
publicly specified beyond their sizes
(docs/architecture.md#reproduction-status-of-the-circuits).
"""

from __future__ import annotations

from repro.mig.build import LogicBuilder
from repro.mig.graph import Mig
from repro.mig.signal import Signal
from repro.mig.words import (
    Word,
    constant_word,
    equal,
    leading_one_index,
    less_than,
    mux_word,
    negate,
    popcount,
)


def make_dec(bits: int = 8, style: str = "aoig") -> Mig:
    """``bits`` → ``2**bits`` one-hot decoder (EPFL ``dec``: 8 → 256).

    Built the classic way: two half-width pre-decoders feeding an AND
    matrix.
    """
    builder = LogicBuilder(style=style, name=f"dec{bits}")
    a = builder.inputs(bits, "a")
    lo, hi = a[: bits // 2], a[bits // 2 :]

    def predecode(sel: list[Signal]) -> list[Signal]:
        lines = [builder.const(1)]
        for bit in sel:
            lines = [builder.and_(line, ~bit) for line in lines] + [
                builder.and_(line, bit) for line in lines
            ]
        return lines

    low_lines = predecode(lo)
    high_lines = predecode(hi)
    index = 0
    for high in high_lines:
        for low in low_lines:
            builder.output(builder.and_(high, low), f"y{index}")
            index += 1
    return builder.mig


def make_priority(bits: int = 128, style: str = "aoig") -> Mig:
    """Priority encoder (EPFL ``priority``: 128 → 8).

    Outputs the index of the highest set request line plus a valid flag.
    """
    builder = LogicBuilder(style=style, name=f"priority{bits}")
    requests = builder.inputs(bits, "r")
    index, found = leading_one_index(builder, requests)
    builder.outputs(index, "y")
    builder.output(found, "valid")
    return builder.mig


def make_int2float(bits: int = 11, exp_bits: int = 3, mant_bits: int = 3, style: str = "aoig") -> Mig:
    """Two's-complement integer → tiny float (EPFL ``int2float``: 11 → 7).

    Output (little-endian POs): ``mant_bits`` mantissa, ``exp_bits``
    biased-by-zero exponent (saturating), then the sign.  Zero maps to all
    zeros; the mantissa holds the bits right below the leading one
    (truncated, implicit-one normalization).
    """
    builder = LogicBuilder(style=style, name=f"int2float{bits}")
    x = builder.inputs(bits, "x")
    sign = x[-1]
    magnitude = mux_word(builder, sign, negate(builder, x), list(x))[: bits - 1]

    msb, found = leading_one_index(builder, magnitude)
    # Mantissa: the mant_bits bits right below the leading one.  Extract by
    # a priority mux over every possible leading-one position.
    mantissa: Word = [builder.const(0)] * mant_bits
    zero = builder.const(0)
    for k in range(len(magnitude)):
        window = [magnitude[k - 1 - j] if k - 1 - j >= 0 else zero for j in range(mant_bits)]
        # one-hot condition: leading one exactly at position k
        target = constant_word(builder, k, len(msb))
        at_k = builder.and_(found, equal(builder, msb, target))
        mantissa = [
            builder.or_(m, builder.and_(at_k, w)) for m, w in zip(mantissa, window)
        ]
    # Exponent: the leading-one index, saturated to exp_bits.
    max_exp = (1 << exp_bits) - 1
    overflow = builder.or_reduce(msb[exp_bits:]) if len(msb) > exp_bits else builder.const(0)
    padded = list(msb[:exp_bits]) + [builder.const(0)] * max(0, exp_bits - len(msb))
    exponent = [builder.or_(overflow, bit) for bit in padded]
    # Mantissa saturates to all ones on overflow.
    mantissa = [builder.or_(overflow, m) for m in mantissa]
    for i, m in enumerate(mantissa):
        builder.output(m, f"m{i}")
    for i, e in enumerate(exponent):
        builder.output(e, f"e{i}")
    builder.output(sign, "sign")
    return builder.mig


def make_voter(inputs: int = 1001, style: str = "aoig") -> Mig:
    """Majority voter over ``inputs`` lines (EPFL ``voter``: 1001 → 1)."""
    if inputs % 2 == 0:
        raise ValueError("a majority voter needs an odd number of inputs")
    builder = LogicBuilder(style=style, name=f"voter{inputs}")
    votes = builder.inputs(inputs, "v")
    count = popcount(builder, votes)
    threshold = constant_word(builder, inputs // 2 + 1, len(count))
    builder.output(~less_than(builder, count, threshold), "majority")
    return builder.mig


def make_ctrl(style: str = "aoig") -> Mig:
    """RISC-style control decoder (EPFL ``ctrl`` signature: 7 → 26).

    Input: 3-bit opcode plus 4-bit function field.  Outputs: 8 one-hot
    opcode lines, ALU control, register/memory/branch strobes — the shape
    of a classic single-cycle control unit.
    """
    builder = LogicBuilder(style=style, name="ctrl")
    op = builder.inputs(3, "op")
    funct = builder.inputs(4, "f")

    # 8 one-hot opcode lines (outputs 0-7).
    one_hot: list[Signal] = []
    for k in range(8):
        literals = [op[i] if (k >> i) & 1 else ~op[i] for i in range(3)]
        one_hot.append(builder.and_reduce(literals))
    for k, line in enumerate(one_hot):
        builder.output(line, f"dec{k}")

    alu_op, load, store, branch, jump, imm, halt = one_hot[:7]
    reg_write = builder.or_reduce([alu_op, load, imm, jump])
    mem_read = load
    mem_write = store
    alu_src = builder.or_reduce([load, store, imm])
    pc_src = builder.or_(jump, builder.and_(branch, funct[0]))
    # ALU control: function field, forced to "add" for memory ops.
    force_add = builder.or_(load, store)
    alu_ctrl = [builder.and_(f, ~force_add) for f in funct]
    link = builder.and_(jump, funct[3])
    trap = builder.and_(halt, builder.and_reduce(funct))
    overflow_en = builder.and_(alu_op, ~funct[3])
    sign_ext = builder.or_(load, builder.or_(store, branch))
    byte_en = [builder.mux(store, funct[i], builder.const(0)) for i in range(2)]
    stall = builder.and_(mem_read, funct[2])

    extras = [
        reg_write, mem_read, mem_write, alu_src, pc_src,
        alu_ctrl[0], alu_ctrl[1], alu_ctrl[2], alu_ctrl[3],
        link, trap, overflow_en, sign_ext, byte_en[0], byte_en[1],
        stall, builder.xor(branch, jump), builder.or_(trap, halt),
    ]
    for i, signal in enumerate(extras):
        builder.output(signal, f"c{i}")
    return builder.mig


def make_router(style: str = "aoig") -> Mig:
    """XY route-compute and arbitration (EPFL ``router`` signature: 60 → 30).

    Four input ports, each with a valid bit and an (x, y) destination;
    the unit computes a one-hot output direction per port (N/S/E/W/local)
    against the router's own coordinates, and grants one request per
    direction with a rotating priority.
    """
    builder = LogicBuilder(style=style, name="router")
    ports = []
    for p in range(4):
        valid = builder.input(f"p{p}_valid")
        dest_x = builder.inputs(5, f"p{p}_x")
        dest_y = builder.inputs(5, f"p{p}_y")
        ports.append((valid, dest_x, dest_y))
    cur_x = builder.inputs(5, "cur_x")
    cur_y = builder.inputs(5, "cur_y")
    rotate = builder.inputs(2, "rr")
    credit = builder.inputs(4, "credit")

    directions = []  # per port: [E, W, N, S, local]
    for valid, dest_x, dest_y in ports:
        east = builder.and_(valid, less_than(builder, cur_x, dest_x))
        west = builder.and_(valid, less_than(builder, dest_x, cur_x))
        same_x = builder.and_(valid, equal(builder, dest_x, cur_x))
        north = builder.and_(same_x, less_than(builder, cur_y, dest_y))
        south = builder.and_(same_x, less_than(builder, dest_y, cur_y))
        local = builder.and_(same_x, equal(builder, dest_y, cur_y))
        directions.append([east, west, north, south, local])

    master_enable = builder.or_reduce(credit)  # active while credits remain
    for p, dirs in enumerate(directions):
        for name, signal in zip(("e", "w", "n", "s", "l"), dirs):
            builder.output(builder.and_(signal, master_enable), f"p{p}_{name}")

    # Rotating-priority grant: port p wins if it is valid, has credit, and
    # no higher-priority valid port exists (priority rotates with `rr`).
    for p in range(4):
        valid = ports[p][0]
        has_credit = credit[p]
        higher_busy = []
        for q in range(4):
            if q == p:
                continue
            # q outranks p when (q - rr) mod 4 < (p - rr) mod 4; build the
            # comparison as a mux over the 4 rotation values.
            outranks_by_rr = []
            for r in range(4):
                outranks_by_rr.append((q - r) % 4 < (p - r) % 4)
            cond_r = [
                builder.and_(
                    builder.xor(rotate[1], builder.const(1 - (r >> 1))),
                    builder.xor(rotate[0], builder.const(1 - (r & 1))),
                )
                for r in range(4)
            ]
            outranks = builder.or_reduce(
                [cond_r[r] for r in range(4) if outranks_by_rr[r]]
            )
            higher_busy.append(builder.and_(ports[q][0], outranks))
        grant = builder.and_reduce(
            [valid, has_credit, ~builder.or_reduce(higher_busy)]
        )
        builder.output(grant, f"grant{p}")

    any_valid = builder.or_reduce([v for v, _, _ in ports])
    all_blocked = builder.and_reduce(
        [builder.or_(~v, ~c) for (v, _, _), c in zip(ports, credit)]
    )
    builder.output(builder.and_(any_valid, all_blocked), "stall")
    builder.output(builder.and_(any_valid, ~master_enable), "drop")
    builder.output(builder.xor(rotate[0], rotate[1]), "parity")
    builder.output(builder.and_(rotate[0], any_valid), "bypass")
    builder.output(builder.or_(credit[0], credit[2]), "credit_even")
    builder.output(builder.or_(credit[1], credit[3]), "credit_odd")
    return builder.mig
