"""Tests for depth rewriting and the Verilog writer."""

import io
import re

import pytest

from repro.core.rewriting import RewriteOptions, rewrite_for_plim
from repro.mig.analysis import depth
from repro.mig.graph import Mig
from repro.mig.io_verilog import write_verilog
from repro.mig.signal import Signal
from repro.mig.simulate import truth_tables

from conftest import random_mig
from rewrite_reference import pass_associativity_depth

DEPTH = RewriteOptions(objective="depth")


def chain_mig(length=6):
    """A linear ⟨x u ⟨…⟩⟩ chain — maximally unbalanced."""
    mig = Mig()
    u = mig.add_pi("u")
    xs = [mig.add_pi(f"x{i}") for i in range(length)]
    node = mig.add_maj(xs[0], u, xs[1])
    for x in xs[2:]:
        node = mig.add_maj(x, u, node)
    mig.add_po(node, "f")
    return mig


class TestDepthRewriting:
    @pytest.mark.parametrize("seed", range(6))
    def test_preserves_function(self, seed):
        mig = random_mig(seed, num_pis=5, num_gates=30)
        assert truth_tables(rewrite_for_plim(mig, DEPTH)) == truth_tables(mig)

    @pytest.mark.parametrize("seed", range(6))
    def test_never_deeper(self, seed):
        mig = random_mig(seed, num_pis=5, num_gates=30)
        assert depth(rewrite_for_plim(mig, DEPTH)) <= depth(mig.cleanup()[0])

    def test_rebalances_chain(self):
        mig = chain_mig(8)
        rewritten = rewrite_for_plim(mig, RewriteOptions(effort=8, objective="depth"))
        assert depth(rewritten) < depth(mig)
        assert truth_tables(rewritten) == truth_tables(mig)

    @pytest.mark.parametrize("seed", range(4))
    def test_single_pass_preserves_function(self, seed):
        mig = random_mig(seed + 10, num_pis=5, num_gates=25)
        assert truth_tables(pass_associativity_depth(mig)) == truth_tables(mig)


class TestVerilogWriter:
    def render(self, mig):
        buffer = io.StringIO()
        write_verilog(mig, buffer)
        return buffer.getvalue()

    def test_structure(self):
        mig = Mig(name="demo")
        a, b, c = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("c")
        g = mig.add_maj(a, ~b, Signal.CONST1)
        mig.add_po(g, "f")
        mig.add_po(~g, "g")
        text = self.render(mig)
        assert text.startswith("// generated by repro")
        assert "module demo (a, b, c, f, g);" in text
        assert "input a, b, c;" in text
        assert "output f, g;" in text
        assert "~b" in text and "1'b1" in text
        assert text.rstrip().endswith("endmodule")

    def test_every_gate_assigned(self):
        mig = random_mig(3, num_pis=4, num_gates=15)
        text = self.render(mig)
        assigns = re.findall(r"assign (n\d+) =", text)
        assert len(assigns) == mig.num_gates  # writer emits all gates

    def test_identifier_sanitization(self):
        mig = Mig(name="bad name!")
        a = mig.add_pi("in[0]")
        mig.add_po(a, "out.0")
        text = self.render(mig)
        assert "module bad_name_" in text
        assert "in_0_" in text
        assert "out_0" in text

    def test_sanitization_collisions_uniquified(self):
        """Regression: ``a[0]`` and ``a_0`` both sanitized to ``a_0``,
        silently shorting two unrelated inputs."""
        mig = Mig(name="collide")
        p = mig.add_pi("a[0]")
        q = mig.add_pi("a_0")
        mig.add_po(p, "p")
        mig.add_po(q, "q")
        text = self.render(mig)
        assigns = dict(re.findall(r"assign (\S+) = (\S+);", text))
        # the two outputs must read from two *different* identifiers
        assert assigns["p"] != assigns["q"]
        header = re.search(r"input (.+);", text).group(1)
        names = [n.strip() for n in header.split(",")]
        assert len(set(names)) == 2

    def test_pi_named_like_gate_wire_uniquified(self):
        """Regression: a PI named ``n<id>`` collided with the internal
        wire of gate ``<id>``."""
        mig = Mig(name="wires")
        a = mig.add_pi("x")
        b = mig.add_pi("y")
        g = mig.add_maj(a, b, Signal.CONST1)  # gate node index 3 -> wire n3
        n_pi = mig.add_pi(f"n{g.node}")  # PI named exactly like the wire
        mig.add_po(mig.add_maj(g, n_pi, Signal.CONST0), "f")
        text = self.render(mig)
        header = re.search(r"input (.+);", text).group(1)
        inputs = {n.strip() for n in header.split(",")}
        wires = set(re.findall(r"assign (n\d+) =", text))
        assert not inputs & wires
        # semantics must survive: the OR gate reads the PI, not the wire
        assert f"n{g.node}_1" in inputs

    def test_duplicate_output_names_uniquified(self):
        mig = Mig(name="dups")
        a = mig.add_pi("a")
        mig.add_po(a, "f")
        mig.add_po(~a, "f")
        text = self.render(mig)
        outputs = re.search(r"output (.+);", text).group(1)
        names = [n.strip() for n in outputs.split(",")]
        assert len(set(names)) == 2

    def test_zero_po_module_is_wellformed(self):
        """Regression: a MIG without POs emitted a bare ``output ;`` line
        and an empty trailing port."""
        mig = Mig(name="nopos")
        a, b = mig.add_pi("a"), mig.add_pi("b")
        mig.add_maj(a, b, Signal.CONST1)
        text = self.render(mig)
        assert "output ;" not in text
        assert "module nopos (a, b);" in text
        assert text.rstrip().endswith("endmodule")

    def test_zero_pi_zero_po_module(self):
        text = self.render(Mig(name="empty"))
        assert "module empty ();" in text
        assert "input ;" not in text and "output ;" not in text

    def test_semantics_via_python_eval(self):
        """Evaluate the emitted expressions with Python operators and
        compare against MIG simulation — a tool-free semantic check."""
        mig = random_mig(5, num_pis=4, num_gates=12)
        text = self.render(mig)
        from repro.mig.simulate import truth_tables as tt

        tables = tt(mig)
        assignments = re.findall(r"assign (\S+) = (.+);", text)
        for pattern in range(16):
            env = {}
            for i, name in enumerate(mig.pi_names()):
                env[name] = (pattern >> i) & 1
            for target, expr in assignments:
                py = expr.replace("1'b1", "1").replace("1'b0", "0")
                py = re.sub(r"~(\w+)", r"(1^\1)", py)
                env[target] = eval(py, {}, env) & 1
            for name in mig.po_names():
                assert env[name] == (tables[name] >> pattern) & 1, (name, pattern)