import dataclasses

import pytest

from qmemsim import assets
from qmemsim.errors import ParseError
from qmemsim.qmasm import nodes as n
from qmemsim.qmasm import parse_program, validate
from qmemsim.qmasm.validator import has_errors


HEADER = "OPENQASM 3;\n"


def errors_of(src):
    return [d for d in validate(parse_program(src)) if d.severity == "error"]


class TestParser:
    def test_register_store_snippet(self):
        prog = parse_program(HEADER + "qubit[4] q;\nmem 4;\nst [0] = q[1:];\n")
        store = prog.body[-1]
        assert isinstance(store, n.Store)
        assert store.qarg.slice == (n.Num(1, store.qarg.slice[0].pos), None)
        assert not has_errors(validate(prog))

    def test_qft_example_parses_with_padding_warning(self):
        src = assets.example_path("qft_amplitude.qmasm").read_text()
        prog = parse_program(src)
        assert any("zero-padded" in w for w in prog.warnings)
        assert any("alias" in w for w in prog.warnings)
        assert not has_errors(validate(prog))

    def test_clean_example_parses_without_padding(self):
        src = assets.example_path("qft_amplitude_clean.qmasm").read_text()
        prog = parse_program(src)
        assert not any("zero-padded" in w for w in prog.warnings)
        assert not has_errors(validate(prog))

    def test_gate_def_with_ctrl_and_angle(self):
        prog = parse_program(HEADER + """
gate cr(n) c, t { angle p = (2*pi)/(2**n); ctrl @ U(0, 0, p) c, t; }
qubit[2] q;
cr(2) q[0], q[1];
""")
        gd = prog.body[0]
        assert isinstance(gd, n.GateDef)
        assert gd.params == ("n",) and gd.args == ("c", "t")
        call = gd.body[1]
        assert call.nctrl == 1 and call.name == "U"

    def test_qld_and_ldqram_are_aliases(self):
        src = HEADER + """
qubit[2] a;
qubit[1] bb;
bit[4] v = [1,0,0,1];
qram qr[2,1];
qinit qr [v];
qld qr(bb)[a];
ldqram qr a bb;
"""
        prog = parse_program(src)
        canonical, alias = prog.body[-2], prog.body[-1]
        assert isinstance(canonical, n.QLoad) and not canonical.alias
        assert isinstance(alias, n.QLoad) and alias.alias
        assert canonical.bus.name == alias.bus.name == "bb"
        assert canonical.addr.name == alias.addr.name == "a"
        assert not has_errors(validate(prog))

    def test_space_and_comma_separated_gate_args(self):
        prog = parse_program(HEADER + "qubit[2] q;\ncx q[0] q[1];\ncx q[0], q[1];\n")
        assert len(prog.body[1].args) == 2
        assert len(prog.body[2].args) == 2

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as exc:
            parse_program(HEADER + "qubit[2] q\nh q;\n")
        assert exc.value.line == 3  # the missing ';' is noticed at `h`

    def test_missing_header(self):
        with pytest.raises(ParseError, match="OPENQASM"):
            parse_program("qubit[1] q;\n")

    def test_unsupported_feature_named(self):
        with pytest.raises(ParseError, match="subroutines"):
            parse_program(HEADER + "def f() { }\n")
        with pytest.raises(ParseError, match="include"):
            parse_program(HEADER + 'include "stdgates.inc";\n')

    def test_inclusive_for_and_while_shapes(self):
        prog = parse_program(HEADER + """
qubit[4] q;
int j = 0;
for i in [0:2] {
  h q[i];
  while (j < 4) { j = j + 1; }
}
""")
        loop = prog.body[-1]
        assert isinstance(loop, n.For)
        assert isinstance(loop.body[-1], n.While)

    def test_oversized_literal_rejected(self):
        src = HEADER + "bit[2] v = [1,0,1];\n"
        assert any("exceeds" in str(d) for d in errors_of(src))

    def test_parsed_program_is_immutable(self):
        prog = parse_program(assets.example_path("qft_amplitude.qmasm").read_text())
        with pytest.raises(dataclasses.FrozenInstanceError):
            prog.body = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            prog.body[0].name = "other"
        gate = next(s for s in n.walk(prog.body) if isinstance(s, n.GateDef))
        with pytest.raises(dataclasses.FrozenInstanceError):
            gate.body[0].params = ()

        def lists_in(value):
            if isinstance(value, list):
                yield value
            elif isinstance(value, tuple):
                for item in value:
                    yield from lists_in(item)
            elif dataclasses.is_dataclass(value):
                for f in dataclasses.fields(value):
                    yield from lists_in(getattr(value, f.name))

        assert list(lists_in(prog)) == []


class TestValidator:
    def test_bit_register_limit(self):
        assert errors_of(HEADER + "bit[1048576] c;\n") == []
        errs = errors_of(HEADER + "bit[1048577] c;\n")
        assert [e.message for e in errs] == ["bit[1048577] c exceeds the 1048576-bit register limit"]

    def test_store_without_mem(self):
        errs = errors_of(HEADER + "qubit[2] q;\nst [0] = q;\n")
        assert any("mem" in str(e) for e in errs)

    def test_memory_span_overflow(self):
        errs = errors_of(HEADER + "qubit[4] q;\nmem 4;\nst [2] = q;\n")
        assert any("span [2, 6)" in str(e) for e in errs)

    def test_qinit_shape_ok(self):
        src = HEADER + """
bit[16] vec = [0,1,1,0,0,1,1,1,0,0,1,1,0,1,0,0];
qram qr[4,1];
qinit qr [vec];
qubit[1] q;
"""
        assert errors_of(src) == []

    def test_qinit_wrong_length(self):
        src = HEADER + "bit[8] v;\nqram qr[4,1];\nqinit qr [v];\nqubit[1] q;\n"
        assert any("qinit data length 8" in str(e) for e in errors_of(src))

    def test_qld_width_errors(self):
        src = HEADER + """
qubit[4] q;
qubit[2] b2;
bit[16] v;
qram qr[4,1];
qinit qr [v];
qld qr(b2)[q];
"""
        assert any("bus width 2" in str(e) for e in errors_of(src))

    def test_slice_bounds(self):
        errs = errors_of(HEADER + "qubit[3] q;\nh q[1:4];\n")
        assert any("slice" in str(e) for e in errs)

    def test_qubit_register_in_condition(self):
        errs = errors_of(HEADER + "qubit[2] q;\nif (q == 1) { h q; }\n")
        assert any("classical" in str(e) for e in errs)

    def test_mem_after_use(self):
        errs = errors_of(HEADER + "qubit[1] q;\nmreset;\nmem 2;\n")
        assert any("before" in str(e) for e in errs)

    def test_duplicate_mem(self):
        errs = errors_of(HEADER + "qubit[1] q;\nmem 2;\nmem 3;\n")
        assert any("more than once" in str(e) for e in errs)

    def test_unknown_gate(self):
        errs = errors_of(HEADER + "qubit[1] q;\nfoo q;\n")
        assert any("unknown gate" in str(e) for e in errs)

    def test_broadcast_width_mismatch(self):
        errs = errors_of(HEADER + "qubit[2] a;\nqubit[3] b;\ncx a b;\n")
        assert any("broadcast" in str(e) for e in errs)

    def test_validation_does_not_mutate(self):
        src = HEADER + "qubit[2] q;\nmem 4;\nst [0] = q;\n"
        prog = parse_program(src)
        before = repr(prog.body)
        validate(prog)
        assert repr(prog.body) == before
