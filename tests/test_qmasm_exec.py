import dataclasses
import gc
import itertools
import math
import random
import signal
import tracemalloc
import weakref

import numpy as np
import pytest

from qmemsim import assets, memdev, qmasm
from qmemsim import statevec as sv
from qmemsim.errors import ArgumentError, QmemError, ResourceError, ValidationFailure
from qmemsim.qmasm import interpreter, nodes
from test_golden import PROGRAMS, QLD_RESET

HEADER = "OPENQASM 3;\n"


def run(src, seed=0, **cfg):
    return qmasm.execute(qmasm.parse_program(src), seed, qmasm.RunConfig(**cfg))


class TestRunConfig:
    @pytest.mark.parametrize("src", [
        HEADER + "qubit[1] q;\nh q;\n",
        HEADER + "qubit[1] a;\nqubit[1] b;\nqram r[1,1];\nqinit r [0,1];\nqld r(b)[a];\n",
    ], ids=["no-qram", "qram"])
    def test_unknown_backend_is_rejected(self, src):
        """A misspelled backend is an error whether or not the program has a
        qram; it used to run a qram-free program as functional."""
        program = qmasm.parse_program(src)
        with pytest.raises(ArgumentError, match="unknown backend 'circut'"):
            qmasm.execute(program, 0, qmasm.RunConfig(backend="circut"))


class TestBasics:
    def test_store_load_round_trip(self):
        res = run(HEADER + "qubit[1] q;\nmem 1;\nh q;\nst [0] = q;\nld q = [0];\n")
        assert res.status == "ok"
        expect = sv.init_state(2)
        sv.apply_gate(expect, sv.gate("h", (0,)))
        assert sv.state_fidelity(res.final_state, sv.StateVector(
            2, expect.amps, res.final_state.labels)) >= 1 - 1e-12
        assert res.memory_dump[0].split("\t")[1] == "reset"

    def test_broadcast_equals_singles(self):
        r1 = run(HEADER + "qubit[3] q;\nh q;\n")
        r2 = run(HEADER + "qubit[3] q;\nh q[2];\nh q[0];\nh q[1];\n")
        assert sv.state_fidelity(r1.final_state, r2.final_state) >= 1 - 1e-12

    def test_inclusive_for_range(self):
        res = run(HEADER + "qubit[1] q;\nint total = 0;\n"
                  "for i in [0:2] { total = total + i; }\n")
        assert res.classical["total"] == 3  # i took 0, 1, 2

    def test_while_and_assign(self):
        res = run(HEADER + "qubit[1] q;\nint j = 0;\nwhile (j < 4) { j = j + 1; }\n")
        assert res.classical["j"] == 4

    def test_if_else(self):
        res = run(HEADER + "qubit[1] q;\nint a = 1;\nint b = 0;\n"
                  "if (a == 0) { b = 10; } else { b = 20; }\n")
        assert res.classical["b"] == 20

    def test_measure_into_bits(self):
        res = run(HEADER + "qubit[2] q;\nbit[2] c;\nx q[1];\n"
                  "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n")
        assert res.classical["c"] == [0, 1]
        assert res.bitstring("c") == "10"

    def test_reset(self):
        res = run(HEADER + "qubit[1] q;\nx q;\nreset q;\n", seed=3)
        assert abs(res.final_state.probability(0, 0) - 1.0) < 1e-12

    def test_register_wide_measure(self):
        res = run(HEADER + "qubit[3] q;\nbit[3] c;\nx q[0];\nx q[2];\n"
                  "measure q -> c;\n")
        assert res.classical["c"] == [1, 0, 1]
        assert res.bitstring("c") == "101"

    def test_single_statement_if_else(self):
        res = run(HEADER + "qubit[1] q;\nint a = 0;\n"
                  "if (a == 1) x q; else h q;\n")
        assert abs(res.final_state.probability(0, 1) - 0.5) < 1e-12

    def test_mreset_single_and_all(self):
        src = HEADER + """
qubit[2] q;
mem 2;
x q;
st [0] = q;
mreset 0;
"""
        res = run(src, seed=2)
        fields = [line.split("\t") for line in res.memory_dump]
        assert fields[0][1] == "reset" and fields[0][3].startswith("|0>:1.0")
        assert fields[1][1] == "occupied" and fields[1][3].startswith("|0>:0.0")

        res_all = run(src.replace("mreset 0;", "mreset;"), seed=2)
        for line in res_all.memory_dump:
            f = line.split("\t")
            assert f[1] == "reset" and f[3].startswith("|0>:1.0")

    def test_mreset_takes_its_cells_from_the_device_model(self, monkeypatch):
        chosen = []
        reset_addresses = memdev.reset_addresses
        monkeypatch.setattr(memdev, "reset_addresses",
                            lambda dev, addr: chosen.append(addr) or reset_addresses(dev, addr))
        src = HEADER + "qubit[1] q;\nmem 2;\nmreset 1;\nmreset;\n"
        run(src)
        assert chosen == [1, None]
        with pytest.raises(QmemError, match="address 2 out of range"):
            run(src.replace("mreset 1;", "mreset 2;"))

    def test_user_gate_phase(self):
        src = HEADER + """
gate cr(n) c, t { angle p = (2*pi)/(2**n); ctrl @ U(0, 0, p) c, t; }
qubit[2] q;
x q[0];
x q[1];
cr(2) q[1], q[0];
"""
        res = run(src)
        # |11> picks up e^{i pi/2} = i
        assert res.final_state.amps[3] == pytest.approx(1j, abs=1e-12)

    def test_determinism(self):
        src = assets.example_path("bell_store.qmasm").read_text()
        prog = qmasm.parse_program(src)
        a = qmasm.execute(prog, 42)
        b = qmasm.execute(prog, 42)
        assert a.classical == b.classical
        assert a.status == b.status == "ok"
        assert np.array_equal(a.final_state.amps, b.final_state.amps)

    def test_bell_store_counts(self):
        src = assets.example_path("bell_store.qmasm").read_text()
        prog = qmasm.parse_program(src)
        results = qmasm.run_shots(prog, seed=1, shots=100)
        counts = qmasm.aggregate_counts(results, "c")
        assert set(counts) <= {"00", "11"}
        assert sum(counts.values()) == 100
        assert 20 <= counts.get("00", 0) <= 80

    def test_buffer_demo_fifo_order(self):
        src = assets.example_path("buffer_demo.qmasm").read_text()
        prog = qmasm.parse_program(src)
        results = qmasm.run_shots(prog, seed=5, shots=400)
        # c[0] measures H|0> (p1 = 1/2); c[1] measures Ry(pi/3)|0> (p1 = 1/4)
        freq0 = sum(r.classical["c"][0] for r in results) / len(results)
        freq1 = sum(r.classical["c"][1] for r in results) / len(results)
        assert abs(freq0 - 0.5) < 0.1
        assert abs(freq1 - 0.25) < 0.1


class TestErrorsAndConfig:
    def test_validation_failure_raises(self):
        prog = qmasm.parse_program(HEADER + "qubit[2] q;\nst [0] = q;\n")
        with pytest.raises(ValidationFailure):
            qmasm.execute(prog, 0)

    def test_runtime_address_error_aborts_shot(self):
        src = HEADER + "qubit[1] q;\nmem 2;\nint i = 5;\nld q = [i];\n"
        res = run(src)
        assert res.status == "error"
        assert "AddressError" in res.error
        assert res.shot_log[0]["status"] == "error"

    def test_post_selection_failure(self):
        src = HEADER + "qubit[1] q;\nbit[1] c;\nmeasure q -> c[0];\n"
        res = run(src, post_select={("c", 0): 1})  # P(1) = 0 on |0>
        assert res.status == "error"
        assert "PostSelection" in res.error

    def test_post_select_parsing(self):
        assert qmasm.parse_post_select("caux[0]=1") == ("caux", 0, 1)
        assert qmasm.parse_post_select("caux0=1") == ("caux", 0, 1)
        assert qmasm.parse_post_select("flag=0") == ("flag", 0, 0)

    @pytest.mark.parametrize("spec", ["c0=x", "nonsense", "c0=2", "c[x]=1", "=1"])
    def test_post_select_parsing_rejects(self, spec):
        with pytest.raises(ArgumentError, match="bad post-select spec"):
            qmasm.parse_post_select(spec)

    @pytest.mark.parametrize("op", ["/", "%"])
    def test_division_by_zero_aborts_shot(self, op):
        res = run(HEADER + f"qubit[1] q;\nint k = 7 {op} 2;\nint z = 0;\nint j = 3 {op} z;\n")
        assert res.status == "error"
        assert res.error == "ShotError: division by zero at line 5, col 11"
        assert res.classical["k"] == (3 if op == "/" else 1)

    def test_bad_bit_slice_aborts_before_measuring(self):
        src = HEADER + "qubit[1] q;\nbit[1] c;\nint k = 5;\nh q[0];\nmeasure q -> c[k:k];\n"
        res = run(src)
        assert res.status == "error"
        assert "slice [5:5] out of range for c" in res.error
        assert res.final_state.probability(0, 1) == pytest.approx(0.5, abs=1e-12)
        assert res.shot_log[0]["measurements"] == []

    def test_store_policy_error_mode(self):
        src = HEADER + "qubit[1] q;\nmem 1;\nh q;\nst [0] = q;\nx q;\nst [0] = q;\n"
        res = run(src, store_policy="error")
        assert res.status == "error" and "PolicyError" in res.error
        assert run(src, store_policy="swap").status == "ok"

    def test_instruction_budget(self):
        src = HEADER + "qubit[1] q;\nint j = 0;\nwhile (j < 1) { j = j * 1; }\n"
        res = run(src, max_steps=1000)
        assert res.status == "error" and "budget" in res.error

    def test_for_takes_one_step_per_iteration(self):
        # the declaration, the loop and each of its three iterations
        src = HEADER + "qubit[1] q;\nfor k in [1:3] { }\n"
        assert run(src, max_steps=5).status == "ok"
        assert run(src, max_steps=4).error == (
            "ShotError: instruction budget of 4 exceeded "
            "(possible runaway loop at line 3, col 1)")

    @pytest.mark.parametrize("before", ["", "bit[1] c;\nh q;\nmeasure q -> c[0];\n"],
                             ids=["prefix", "after-measure"])
    def test_empty_for_loop_ends_at_the_step_budget(self, before):
        src = HEADER + "qubit[1] q;\n" + before + "for k in [1:10**12] { }\n"

        def unbounded(signum, frame):
            raise TimeoutError("the loop ran on past its step budget")

        # the loop would run for about a day without its budget; fail instead
        previous = signal.signal(signal.SIGALRM, unbounded)
        signal.setitimer(signal.ITIMER_REAL, 10)
        try:
            results = qmasm.run_shots(qmasm.parse_program(src), 0, 3)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        line = src.count("\n")
        assert [r.error for r in results] == [
            "ShotError: instruction budget of 1000000 exceeded "
            f"(possible runaway loop at line {line}, col 1)"] * 3

    def test_qubit_budget(self):
        with pytest.raises(ResourceError):
            run(HEADER + "qubit[20] a;\nqubit[8] b;\n")

    @pytest.mark.parametrize("src, error, message", [
        ("qubit[1000000] q;", ResourceError, "program needs 1000000 qubits; budget is 24"),
        ("qubit[1] q;\nmem 1000000;", ResourceError,
         "program needs 1000001 qubits; budget is 24"),
        ("qubit[1] q;\nbit[1048577] c;", ValidationFailure, "1048576-bit register limit"),
        ("qubit[1] q;\nbit[1048577] c = [1];", ValidationFailure,
         "1048576-bit register limit"),
    ])
    def test_oversized_declarations_fail_before_allocating(self, src, error, message):
        tracemalloc.start()
        try:
            with pytest.raises(error, match=message):
                run(HEADER + src + "\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_timing_profile_produces_timeline(self):
        timing = qmasm.TimingProfile(
            gate_time=40e-9, gate_fidelity=0.999,
            raqm=memdev.RaqmTiming(t_addr=1e-6, t_rw_qmc=2e-7, t_storage=1e-3),
            raqm_fidelity=0.99)
        src = HEADER + "qubit[1] q;\nmem 1;\nh q;\nst [0] = q;\nld q = [0];\n"
        res = run(src, timing=timing)
        labels = [op for _, op, _ in res.timeline]
        assert labels == ["gate:h", "st", "ld"]
        durations = dict((op, d) for _, op, d in res.timeline)
        assert durations["st"] == pytest.approx(1.2e-6)
        assert res.fidelity_estimate == pytest.approx(0.999 * 0.99 * 0.99, rel=1e-6)

    def test_idle_decay_in_fidelity(self):
        timing = qmasm.TimingProfile(
            gate_time=1e-6, raqm=memdev.RaqmTiming(0.0, 1e-6, t_storage=10e-6))
        src = HEADER + ("qubit[1] q;\nmem 1;\nst [0] = q;\n" + "x q;\n" * 5
                        + "ld q = [0];\n")
        res = run(src, timing=timing)
        # cell occupied for 5 gate times = 5us; decay exp(-0.5)
        assert res.fidelity_estimate == pytest.approx(math.exp(-0.5), rel=1e-6)

    def test_idle_decay_of_cells_still_occupied_at_the_end(self):
        timing = qmasm.TimingProfile(raqm=memdev.RaqmTiming(0.0, 1e-6, t_storage=10e-6))
        res = run(HEADER + "qubit[2] q;\nmem 2;\nst [0] = q;\nx q;\n", timing=timing)
        assert res.status == "ok"
        t, _, d = res.timeline[-1]
        end = t + d
        stored = [t + d for t, op, d in res.timeline if op == "st"]
        assert len(stored) == 2
        want = math.prod(math.exp(-(end - since) / 10e-6) for since in stored)
        assert res.fidelity_estimate == pytest.approx(want, rel=1e-12)


def bad_gate_body_program():
    """`g q[0];` where g's body holds a `measure`: the parser accepts no such
    body and the validator does not look for one, so only a hand-built AST
    reaches the interpreter's own check."""
    program = qmasm.parse_program(HEADER + "qubit[1] q;\nbit[1] c;\ngate g a { x a; }\ng q[0];\n")
    body = list(program.body)
    measure = nodes.Measure(nodes.QArg("a"), nodes.QArg("c", nodes.Num(0)))
    body[2] = dataclasses.replace(body[2], body=(measure,))
    return nodes.Program(tuple(body), program.warnings)


class TestReachableErrors:
    """Every error the interpreter raises that a program can reach past the
    validator, with its exact message, so a rework of the statement path keeps
    each one word for word."""

    PREFIX = HEADER + "qubit[4] q;\nbit[2] c;\n"
    UNTAKEN = "if (c[0] == 1) { "

    @pytest.mark.parametrize("src, config, message", [
        (PREFIX + UNTAKEN + "int k = 1; }\nint j = k;\n", {},
         "ShotError: unknown name 'k' at line 5, col 9"),
        (PREFIX + UNTAKEN + "bit[1] d; }\nint j = d[0];\n", {},
         "ShotError: unknown bit register 'd' at line 5, col 9"),
        (PREFIX + "int k = 3;\nint j = c[k];\n", {},
         "ShotError: index 3 out of range for c at line 5, col 9"),
        (PREFIX + "int k = 4;\nh q[k];\n", {},
         "ShotError: index 4 out of range for q at line 5, col 3"),
        (PREFIX + UNTAKEN + "bit[1] d; }\nmeasure q[0] -> d[0];\n", {},
         "ShotError: undeclared bit register 'd' at line 5, col 17"),
        (PREFIX + "int k = 2;\ncx q[0:k], q[2:3];\n", {},
         "ShotError: broadcast width mismatch at line 5, col 1"),
        (PREFIX + UNTAKEN + "gate g a { x a; } }\ng q[0];\n", {},
         "ShotError: unknown gate 'g' at line 5, col 1"),
        (PREFIX + "gate g(t) a { U(t, 0, 0) a; }\ngate k a { g a; }\nk q[0];\n", {},
         "ShotError: gate 'g' called with wrong arity"),
        (PREFIX + "int k = 0;\nmeasure q[0:1] -> c[0:k];\n", {},
         "ShotError: measure width mismatch at line 5, col 1"),
        (PREFIX + UNTAKEN + "bit[2] d; }\nqram r[1,1];\nqinit r [d];\n", {},
         "ShotError: qinit source 'd' not initialized"),
        (PREFIX + "qram r[1,1];\nqinit r [0,1];\nqinit r [1,0];\n", {"backend": "circuit"},
         "ShotError: circuit backend does not support re-running qinit"),
        (PREFIX + "qram r[1,1];\nqld r(q[0])[q[1]];\n", {},
         "ShotError: qld before qinit"),
        (PREFIX + "qram r[2,1];\nqinit r [0,1,1,0];\nint k = 1;\nqld r(q[0])[q[1:k]];\n", {},
         "ShotError: qld needs 2 address and 1 bus qubits, got 1/1"),
        (HEADER, {}, "ArgumentError: program declares no qubits"),
        (None, {}, "ShotError: bad statement in gate body of 'g'"),
        # a gate that fails its check reports before a later gate of the same
        # call fails to evaluate
        (PREFIX + "gate g a, b { cx a, b; U(1/0, 0, 0) a; }\ng q[0], q[0];\n", {},
         "ArgumentError: qubit 0 repeated among targets/controls"),
        (PREFIX + "gate g a, b { cx a; U(1/0, 0, 0) a; }\ng q[0], q[1];\n", {},
         "ArgumentError: gate 'cnot' expects 2 targets, got 1"),
        (PREFIX + "gate g a, b { cx a, b; U(1/0, 0, 0) a; }\ng q[0], q[1];\n", {},
         "ShotError: division by zero at line 4, col 27"),
    ], ids=["unknown-name", "unknown-bit-register", "index-in-expression",
            "index-in-argument", "undeclared-bit-register", "broadcast-width",
            "unknown-gate", "wrong-arity", "measure-width", "qinit-source",
            "qinit-rerun", "qld-before-qinit", "qld-width", "no-qubits",
            "bad-gate-body", "repeat-before-eval", "width-before-eval", "eval-in-body"])
    def test_message(self, src, config, message):
        program = bad_gate_body_program() if src is None else qmasm.parse_program(src)
        got = outcome(lambda: qmasm.execute(program, 0, qmasm.RunConfig(**config)).error)
        assert got == message


class TestAtomicStatements:
    """A gate call or an ld/st that fails leaves the shot as it was before the
    statement: its error shot equals an `ok` run of the program cut before
    the failing statement, timeline and cell statuses included."""

    TIMING = qmasm.TimingProfile(
        gate_time=1e-6, gate_fidelity=0.99, raqm_fidelity=0.98,
        raqm=memdev.RaqmTiming(t_addr=1e-6, t_rw_qmc=2e-7, t_storage=1e-5))

    @pytest.mark.parametrize("done, failing, policy, error", [
        ("qubit[2] q;\nx q[0];\n", "cx q, q[1];\n", "swap",
         "ArgumentError: qubit 1 repeated among targets/controls"),
        ("qubit[2] q;\nx q[0];\ngate g a, b { cx a, b; h b; U(1/0, 0, 0) a; }\n",
         "g q[0], q[1];\n", "swap", "ShotError: division by zero at line 4, col 32"),
        ("qubit[2] q;\nx q[0];\nmem 3;\nint a = 2;\n", "st [a] = q;\n", "swap",
         "AddressError: address 3 out of range for 3-cell memory"),
        ("qubit[2] q;\nx q[0];\nmem 3;\nst [0] = q;\nint a = 2;\n", "ld q = [a];\n",
         "swap", "AddressError: address 3 out of range for 3-cell memory"),
        ("qubit[2] q;\nqubit[1] p;\nx q;\nmem 3;\nst [1] = p;\n", "st [0] = q;\n", "error",
         "PolicyError: store to occupied cell 1 (policy 'error'; use 'swap' to allow reuse)"),
    ], ids=["gate-broadcast", "user-gate-body", "st-span", "ld-span", "st-policy"])
    def test_error_shot_equals_the_run_before_the_statement(self, done, failing, policy, error):
        config = qmasm.RunConfig(timing=self.TIMING, store_policy=policy)
        failed = qmasm.execute(qmasm.parse_program(HEADER + done + failing), 0, config)
        before = qmasm.execute(qmasm.parse_program(HEADER + done), 0, config)
        assert (failed.status, failed.error) == ("error", error)
        assert before.status == "ok" and before.timeline
        assert failed.final_state.amps.tobytes() == before.final_state.amps.tobytes()
        for name in ("trace", "timeline", "classical", "memory_dump", "fidelity_estimate"):
            assert getattr(failed, name) == getattr(before, name), name


class TestFlattenedTraceEquivalence:
    def straight_line_sources(self):
        yield HEADER + """
qubit[2] q;
mem 2;
h q[0];
cx q[0] q[1];
st [0] = q;
ld q = [0];
"""
        yield HEADER + """
qubit[2] a;
qubit[1] bb;
bit[4] v = [1,0,1,1];
qram qr[2,1];
qinit qr [v];
h a;
qld qr(bb)[a];
"""
        yield assets.example_path("buffer_demo.qmasm").read_text()

    def test_interpreter_equals_flattened_replay(self):
        for src in self.straight_line_sources():
            for seed in (0, 1, 2):
                res = run(src, seed=seed)
                assert res.status == "ok"
                replayed = qmasm.replay_trace(res.trace, res.num_qubits)
                fid = abs(np.vdot(replayed.amps, res.final_state.amps)) ** 2
                assert fid >= 1 - 1e-9

    def test_ld_st_inverse_after_random_prefix(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            theta, phi, lam = rng.uniform(0, 3, 3)
            src = HEADER + f"""
qubit[2] q;
mem 2;
U({theta}, {phi}, {lam}) q[0];
cx q[0] q[1];
st [1] = q[1];
ld q[1] = [1];
"""
            res = run(src)
            stripped = [e for e in res.trace][:-2]  # drop the st/ld swaps
            replayed = qmasm.replay_trace(stripped, res.num_qubits)
            fid = abs(np.vdot(replayed.amps, res.final_state.amps)) ** 2
            assert fid >= 1 - 1e-12


class TestCircuitBackend:
    SRC = HEADER + """
qubit[2] a;
qubit[1] bb;
bit[4] v = [1,0,0,1];
qram qr[2,1];
qinit qr [v];
h a;
qld qr(bb)[a];
"""

    def test_matches_functional(self):
        prog = qmasm.parse_program(self.SRC)
        func = qmasm.execute(prog, 0, qmasm.RunConfig(backend="functional"))
        circ = qmasm.execute(prog, 0, qmasm.RunConfig(backend="circuit"))
        assert circ.status == "ok"
        # data qubits a(0,1), bb(2); memory holds |1001>, ancillas |0>
        x_value = 0b1001
        small = func.final_state.amps
        big = circ.final_state.amps
        carved = np.array([big[k | (x_value << 3)] for k in range(8)])
        fid = abs(np.vdot(carved, small)) ** 2
        assert fid >= 1 - 1e-9

    def test_replay_matches_final_state(self):
        res = qmasm.execute(qmasm.parse_program(self.SRC), 3,
                            qmasm.RunConfig(backend="circuit"))
        assert res.status == "ok"
        replayed = qmasm.replay_trace(res.trace, res.num_qubits)
        assert np.array_equal(replayed.amps, res.final_state.amps)

    def test_qinit_after_gates_matches_replay(self):
        # the address is in superposition when qinit flips the memory cells
        src = self.SRC.replace("qinit qr [v];\nh a;\n", "h a;\nqinit qr [v];\n")
        res = qmasm.execute(qmasm.parse_program(src), 3,
                            qmasm.RunConfig(backend="circuit"))
        assert res.status == "ok"
        flips = [e[1] for e in res.trace if e[0] == "gate" and e[1].kind == "x"
                 and not e[1].controls]
        assert len(flips) == 2
        replayed = qmasm.replay_trace(res.trace, res.num_qubits)
        assert np.array_equal(replayed.amps, res.final_state.amps)

    def test_budget_exceeded(self):
        src = assets.example_path("qft_amplitude.qmasm").read_text()
        prog = qmasm.parse_program(src)
        with pytest.raises(ResourceError, match="address bits"):
            qmasm.execute(prog, 0, qmasm.RunConfig(backend="circuit"))


class TestQftExampleSmoke:
    def test_padded_example_runs_both_branches(self):
        src = assets.example_path("qft_amplitude.qmasm").read_text()
        prog = qmasm.parse_program(src)
        seen = set()
        for seed in range(8):
            res = qmasm.execute(prog, seed)
            assert res.status == "ok"
            seen.add(res.classical["caux"][0])
        assert seen == {0, 1}

    def test_clean_post_selected_caux1_is_zero(self):
        src = assets.example_path("qft_amplitude_clean.qmasm").read_text()
        prog = qmasm.parse_program(src)
        res = qmasm.execute(prog, 11, qmasm.RunConfig(post_select={("caux", 0): 1}))
        assert res.status == "ok"
        # the second oracle call uncomputes the bus, so caux[1] is always 0
        assert res.classical["caux"] == [1, 0]
        # all four memory cells are occupied at the end
        assert all(line.split("\t")[1] == "occupied" for line in res.memory_dump)


EXAMPLE_POST_SELECT = {
    "bell_store": ("c", 0),
    "buffer_demo": ("c", 1),
    "qft_amplitude": ("caux", 0),
    "qft_amplitude_clean": ("caux", 0),
}


def circuit_qld_source(seed):
    """A seeded circuit-backend qld program on a 2-bit address, 12 qubits in all."""
    rng = random.Random(seed)
    data = ",".join(str(rng.randrange(2)) for _ in range(4))
    lines = [HEADER + "qubit[2] a;", "qubit[1] b;", "bit[1] c;", "bit[2] ca;",
             "qram qr[2,1];", f"qinit qr [{data}];"]
    for i in range(2):
        theta, phi, lam = (rng.uniform(0.3, 3.0) for _ in range(3))
        lines.append(f"U({theta:.12f}, {phi:.12f}, {lam:.12f}) a[{i}];")
    lines += ["qld qr(b)[a];", "measure b -> c[0];", "qld qr(b)[a];", "measure a -> ca;"]
    return "\n".join(lines) + "\n"


def fork_cases():
    timing = qmasm.TimingProfile(gate_fidelity=0.999, raqm_fidelity=0.99,
                                 raqm=memdev.RaqmTiming(t_addr=1e-6, t_rw_qmc=2e-7))
    decay = qmasm.TimingProfile(
        gate_time=1e-6, raqm=memdev.RaqmTiming(0.0, 1e-6, t_storage=10e-6))
    for name, bit in EXAMPLE_POST_SELECT.items():
        src = assets.example_path(name + ".qmasm").read_text()
        yield name, src, qmasm.RunConfig()
        yield name + "-circuit", src, qmasm.RunConfig(backend="circuit")
        yield name + "-timing", src, qmasm.RunConfig(timing=timing)
        yield name + "-post-select", src, qmasm.RunConfig(post_select={bit: 1})
    # a cell is released after the prefix, so idle decay differs per shot
    yield ("buffer_demo-decay", assets.example_path("buffer_demo.qmasm").read_text(),
           qmasm.RunConfig(timing=decay))
    for seed in (1, 2):
        yield (f"qld-circuit-{seed}", circuit_qld_source(seed),
               qmasm.RunConfig(backend="circuit"))
    yield ("qld-circuit-timing", circuit_qld_source(3),
           qmasm.RunConfig(backend="circuit", timing=timing,
                           post_select={("c", 0): 1}))
    yield ("prefix-division-by-zero",
           HEADER + "qubit[1] q;\nbit[1] c;\nint k = 0;\nh q;\nint j = 3 / k;\n"
           "measure q -> c[0];\n", qmasm.RunConfig(timing=timing))
    yield ("prefix-step-budget",
           HEADER + "qubit[1] q;\nbit[1] c;\nint j = 0;\n"
           "while (j < 100) { h q; j = j + 1; }\nmeasure q -> c[0];\n",
           qmasm.RunConfig(max_steps=50))
    yield ("declarations-only-prefix",
           HEADER + "qubit[2] q;\nbit[2] c;\nif (c[0] == 0) { h q; measure q[0] -> c[0]; }\n"
           "h q[1];\nmeasure q -> c;\n", qmasm.RunConfig())


FORK_CASES = list(fork_cases())


def outcome(fn):
    """The results, or the type and message of the exception raised."""
    try:
        return fn()
    except QmemError as exc:
        return f"{type(exc).__name__}: {exc}"


def shot_fields(r):
    return (r.status, r.error, r.classical, r.shot_log, r.trace,
            r.final_state.amps.tobytes(), r.memory_dump, r.timeline,
            r.fidelity_estimate, r.warnings, r.num_qubits)


class TestShotFork:
    """run_shots runs the RNG-free prefix once; each shot must still equal a
    from-scratch run of the whole program with its own seed."""

    SHOTS = 4
    # enough shots that later ones follow the outcome path of an earlier one
    # and are replayed on every case
    REPLAYED_SHOTS = 40

    @pytest.mark.parametrize("name, src, config", FORK_CASES,
                             ids=[c[0] for c in FORK_CASES])
    def test_shots_equal_from_scratch_runs(self, name, src, config):
        self.check_against_scratch_runs(src, config, self.SHOTS)

    @pytest.mark.parametrize("name, src, config", FORK_CASES,
                             ids=[c[0] for c in FORK_CASES])
    def test_replayed_shots_equal_from_scratch_runs(self, name, src, config, monkeypatch):
        replays = []
        replay = interpreter._Interpreter.replay

        def counted(leaf, seed):
            replays.append(seed)
            return replay(leaf, seed)

        monkeypatch.setattr(interpreter._Interpreter, "replay", counted)
        if self.check_against_scratch_runs(src, config, self.REPLAYED_SHOTS):
            assert replays

    @staticmethod
    def check_against_scratch_runs(src, config, shots) -> bool:
        """Whether the program ran (True) or was rejected before its shots."""
        program = qmasm.parse_program(src)
        seed = 40
        forked = outcome(lambda: qmasm.run_shots(program, seed, shots, config))
        scratch = outcome(lambda: [qmasm.execute(program, seed + i, config)
                                   for i in range(shots)])
        if isinstance(scratch, str):
            assert forked == scratch
            return False
        assert [shot_fields(r) for r in forked] == [shot_fields(r) for r in scratch]
        for a, b in itertools.combinations(forked, 2):
            assert not np.shares_memory(a.final_state.amps, b.final_state.amps)
            for field in ("trace", "timeline", "warnings", "shot_log"):
                assert getattr(a, field) is not getattr(b, field)
            for x, y in zip(a.shot_log[0]["measurements"], b.shot_log[0]["measurements"]):
                assert x is not y
        return True

    def test_the_last_shot_keeps_no_leaf(self, monkeypatch):
        kept = []
        add = interpreter._OutcomePaths.add

        def counted(paths, shot):
            kept.append(shot.seed)
            add(paths, shot)

        monkeypatch.setattr(interpreter._OutcomePaths, "add", counted)
        program = qmasm.parse_program(assets.example_path("bell_store.qmasm").read_text())
        qmasm.execute(program, 3)
        assert kept == []
        results = qmasm.run_shots(program, 3, 20)
        # bell_store has two outcome paths: each is run once, then replayed
        assert len(kept) == 2 and kept[0] == 3
        assert {r.bitstring("c") for r in results} == {"00", "11"}

    @pytest.mark.parametrize("width", [13, 16])
    def test_kept_leaves_do_not_grow_memory_with_shots(self, width):
        """Every shot of `h q; measure q` follows its own outcome path, so an
        unbounded cache would keep one state per shot."""
        program = qmasm.parse_program(
            HEADER + f"qubit[{width}] q;\nbit[{width}] c;\nh q;\nmeasure q -> c;\n")
        peak = {}
        for shots in (2, 40):
            tracemalloc.start()
            try:
                for result in qmasm.iter_shots(program, 1, shots):
                    del result
                peak[shots] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak[40] - peak[2] < 2 << 20, peak

    def test_prefix_errors_reach_every_shot(self):
        cases = {c[0]: c for c in FORK_CASES}
        for name, message in (("prefix-division-by-zero", "division by zero"),
                              ("prefix-step-budget", "instruction budget")):
            _, src, config = cases[name]
            results = qmasm.run_shots(qmasm.parse_program(src), 7, 3, config)
            assert [r.status for r in results] == ["error"] * 3
            assert all(message in r.error for r in results)
            assert [r.shot_log[0]["shot"] for r in results] == [7, 8, 9]

    def test_prefix_stops_at_first_rng_statement(self):
        cases = {c[0]: c for c in FORK_CASES}
        program = qmasm.parse_program(cases["declarations-only-prefix"][1])
        assert interpreter._rng_free_prefix(program.body) == 2
        src = assets.example_path("qft_amplitude_clean.qmasm").read_text()
        body = qmasm.parse_program(src).body
        split = interpreter._rng_free_prefix(body)
        assert isinstance(body[split], nodes.Measure)
        assert interpreter._rng_free_prefix(body[:split]) == split

    @pytest.mark.parametrize("src, config", [
        (assets.example_path("qft_amplitude_clean.qmasm").read_text(), qmasm.RunConfig()),
        (circuit_qld_source(1), qmasm.RunConfig(backend="circuit")),
    ])
    def test_fork_shares_no_mutable_object(self, src, config):
        program = qmasm.parse_program(src)
        base = interpreter._Interpreter(program, config)
        base.run(program.body[:interpreter._rng_free_prefix(program.body)])
        other = base.fork()
        assert not np.shares_memory(base.state.amps, other.state.amps)
        for field in ("trace", "timeline", "measurements", "warnings", "ints", "bits",
                      "gate_defs", "cell_busy_since", "cell_busy_total", "qrams"):
            assert getattr(base, field) is not getattr(other, field)
        assert base.bits and all(base.bits[k] is not other.bits[k] for k in base.bits)
        if base.mem is not None:
            assert base.mem is not other.mem
            assert base.mem.cell_status is not other.mem.cell_status
        for name, binding in base.qrams.items():
            device = other.qrams[name].device
            assert binding.device is not device
            assert binding.device.classical_data is not device.classical_data


def dense_state(num_qubits, labels=None):
    return sv.init_state(num_qubits, labels=labels)


def golden_cases():
    """The programs the golden CLI test pins, with its timing-report run."""
    timing = qmasm.TimingProfile()
    for program in PROGRAMS:
        name = program.removeprefix("examples/")
        if program.startswith("examples/"):
            src = assets.example_path(name).read_text()
        else:
            src = QLD_RESET
        for backend in ("functional", "circuit"):
            yield f"{name}-{backend}", src, qmasm.RunConfig(backend=backend)
            yield (f"{name}-{backend}-timing", src,
                   qmasm.RunConfig(backend=backend, timing=timing))


class TestSupportRepresentation:
    """A program gives the same results, final-state bytes included, whether
    the interpreter holds its state dense or as a statevec.SupportState."""

    def run_both(self, monkeypatch, src, seed, shots, config):
        """Each state form runs a program parsed for it: a Program keeps its
        prefix between calls, in the form it was first built in."""
        made = []

        def support_state(num_qubits, labels=None):
            made.append(sv.SupportState.basis(num_qubits, 0, labels))
            return made[-1]

        # keep small states in the support form, which would not pay for them
        monkeypatch.setattr(sv, "held", lambda state: state)
        results = []
        for make in (dense_state, support_state):
            monkeypatch.setattr(sv, "zero_state", make)
            program = qmasm.parse_program(src)
            results.append(outcome(lambda: [
                shot_fields(r) for r in qmasm.run_shots(program, seed, shots, config)]))
        return made, results

    @pytest.mark.parametrize("name, src, config", FORK_CASES + list(golden_cases()),
                             ids=[c[0] for c in FORK_CASES]
                             + ["golden-" + c[0] for c in golden_cases()])
    def test_same_shots_on_both_representations(self, name, src, config, monkeypatch):
        made, (dense, support) = self.run_both(monkeypatch, src, 40, 4, config)
        assert dense == support
        assert made or isinstance(dense, str)  # no layout: rejected before a state

    def test_fork_of_a_support_state_shares_no_array(self, monkeypatch):
        monkeypatch.setattr(sv, "zero_state",
                            lambda n, labels=None: sv.SupportState.basis(n, 0, labels))
        monkeypatch.setattr(sv, "held", lambda state: state)
        program = qmasm.parse_program(QLD_RESET)
        split = interpreter._rng_free_prefix(program.body)
        base = interpreter._Interpreter(program, qmasm.RunConfig(backend="circuit"))
        base.run(program.body[:split])
        other = base.fork()
        assert isinstance(base.state, sv.SupportState)
        for name in ("index", "values", "zeros"):
            assert not np.shares_memory(getattr(base.state, name), getattr(other.state, name))
        results = [other.finish(0, program.body[split:]), base.finish(1, program.body[split:])]
        assert [r.status for r in results] == ["ok", "ok"]
        assert not np.shares_memory(results[0].final_state.amps, results[1].final_state.amps)

    def test_state_turns_dense_mid_run_once_the_support_stops_paying(self, monkeypatch):
        src = HEADER + "qubit[16] q;\nbit[2] c;\nh q[0:3];\nmeasure q[0:1] -> c;\nh q;\n" \
            "U(0.3, 0.2, 0.1) q[4];\nmeasure q[5:6] -> c;\n"
        program = qmasm.parse_program(src)
        interp = interpreter._Interpreter(program, qmasm.RunConfig())
        assert isinstance(interp.state, sv.SupportState)
        interp.finish(5, program.body[:4])  # seeds the shot's RNG
        assert isinstance(interp.state, sv.SupportState)
        interp.run(program.body[4:])
        assert isinstance(interp.state, sv.StateVector)
        changed = shot_fields(interp.result())
        monkeypatch.setattr(sv, "zero_state", dense_state)
        assert shot_fields(qmasm.run_shots(program, 5, 1)[0]) == changed


class TestLazyMemoryDump:
    """RunResult.memory_dump is computed on first read, from the final state
    and the cell statuses as the shot ended."""

    @staticmethod
    def count_dumps(monkeypatch):
        calls = []
        dump = memdev.memory_dump

        def counted(*args, **kwargs):
            calls.append(args)
            return dump(*args, **kwargs)

        monkeypatch.setattr(memdev, "memory_dump", counted)
        return calls

    def test_computed_once_on_first_read(self, monkeypatch):
        calls = self.count_dumps(monkeypatch)
        src = assets.example_path("qft_amplitude_clean.qmasm").read_text()
        results = qmasm.run_shots(qmasm.parse_program(src), 3, 50)
        assert calls == []
        first = results[7].memory_dump
        assert len(first) == 4 and results[7].memory_dump is first
        assert len(calls) == 1

    @pytest.mark.parametrize("name, src, config", list(golden_cases()),
                             ids=[c[0] for c in golden_cases()])
    def test_equals_dump_at_result_time(self, name, src, config, monkeypatch):
        ended = []  # per shot: the RAQM device and its cell statuses at result time
        result = interpreter._Interpreter.result

        def recording(self):
            ended.append(self.mem and (self.mem, list(self.mem.cell_status)))
            return result(self)

        monkeypatch.setattr(interpreter._Interpreter, "result", recording)
        shots = outcome(lambda: qmasm.run_shots(qmasm.parse_program(src), 9, 3, config))
        if isinstance(shots, str):  # the layout was rejected before any shot
            return
        assert len(ended) == len(shots) == 3
        for r, mem in zip(shots, ended):
            if mem is None:
                assert r.memory_dump == []
                continue
            device, status = mem
            device.cell_status[:] = ["changed"] * device.capacity  # after the shot
            want = memdev.memory_dump(memdev.RaqmDevice(device.cell_qubits, status),
                                      r.final_state)
            assert r.memory_dump == want


class TestCompiledProgram:
    """A Program keeps its validation outcome, its RNG-free split and its
    prefix between calls; each call must still give a fresh program's shots."""

    DECAY = qmasm.TimingProfile(
        gate_time=1e-6, raqm=memdev.RaqmTiming(0.0, 1e-6, t_storage=10e-6))

    @pytest.mark.parametrize("name", ["qld_reset", *EXAMPLE_POST_SELECT])
    def test_reused_program_equals_fresh_programs(self, name):
        src, bit = QLD_RESET, ("c", 0)
        if name != "qld_reset":
            src, bit = assets.example_path(name + ".qmasm").read_text(), EXAMPLE_POST_SELECT[name]
        reused = qmasm.parse_program(src)
        for config in [qmasm.RunConfig(), qmasm.RunConfig(backend="circuit"),
                       qmasm.RunConfig(timing=self.DECAY),
                       qmasm.RunConfig(post_select={bit: 1}),
                       qmasm.RunConfig(backend="circuit", timing=self.DECAY),
                       qmasm.RunConfig()]:
            got = outcome(lambda: [shot_fields(r) for r in qmasm.run_shots(reused, 11, 6, config)])
            want = outcome(lambda: [shot_fields(r) for r in qmasm.run_shots(
                qmasm.parse_program(src), 11, 6, config)])
            assert got == want

    def test_shots_run_under_the_callers_config(self):
        """A kept prefix is reused for an equal config even after the config
        it was built under changed in place; its shots use the caller's."""
        def decay():
            return qmasm.RunConfig(timing=qmasm.TimingProfile(
                gate_time=1e-6, raqm=memdev.RaqmTiming(0.0, 1e-6, t_storage=10e-6)))

        reused = qmasm.parse_program(QLD_RESET)
        first = decay()
        qmasm.run_shots(reused, 3, 4, first)
        first.timing.gate_time = 2e-6
        first.timing.raqm.t_storage = 1e-6
        got = qmasm.run_shots(reused, 3, 4, decay())
        want = qmasm.run_shots(qmasm.parse_program(QLD_RESET), 3, 4, decay())
        assert [shot_fields(r) for r in got] == [shot_fields(r) for r in want]

    def test_equal_configs_of_other_types_build_their_own_prefix(self):
        """gate_time=1 == 1.0, but the prefix's timeline holds the value the
        config gave it, so a prefix built under one is not reused under the
        other."""
        def timed(gate_time):
            return qmasm.RunConfig(timing=qmasm.TimingProfile(gate_time=gate_time))

        reused = qmasm.parse_program(QLD_RESET)
        for gate_time in (1.0, 1, -0.0, 0.0):
            got = qmasm.run_shots(reused, 5, 3, timed(gate_time))
            want = qmasm.run_shots(qmasm.parse_program(QLD_RESET), 5, 3, timed(gate_time))
            assert repr([shot_fields(r) for r in got]) == repr([shot_fields(r) for r in want])

    def test_work_is_kept_per_program_and_config(self, monkeypatch):
        validated, built = [], []
        validate, init = interpreter.validate, interpreter._Interpreter.__init__

        def counted_validate(program):
            validated.append(program)
            return validate(program)

        def counted_init(self, program, config):
            built.append(config)
            init(self, program, config)

        monkeypatch.setattr(interpreter, "validate", counted_validate)
        monkeypatch.setattr(interpreter._Interpreter, "__init__", counted_init)
        program = qmasm.parse_program(QLD_RESET)
        config = qmasm.RunConfig(max_steps=1000)
        for _ in range(3):  # an equal config object reuses the prefix
            assert {r.status for r in qmasm.run_shots(program, 0, 4, config)} == {"ok"}
            config = qmasm.RunConfig(max_steps=1000)
        assert len(validated) == 1 and len(built) == 1
        # a config changed in place is a new config: the 13-statement prefix
        # now exceeds the step budget
        config.max_steps = 12
        results = qmasm.run_shots(program, 0, 4, config)
        assert len(built) == 2
        assert {r.error for r in results} == {
            "ShotError: instruction budget of 12 exceeded "
            "(possible runaway loop at line 14, col 1)"}

    def test_validation_failure_raises_on_every_call(self):
        program = qmasm.parse_program(HEADER + "qubit[2] q;\nst [0] = q;\n")
        messages = []
        for _ in range(2):
            with pytest.raises(ValidationFailure) as info:
                qmasm.execute(program, 0)
            messages.append(str(info.value))
        assert messages[0] == messages[1] and "ld/st before mem" in messages[0]

    def test_a_prefix_over_the_budget_is_freed_with_the_call(self, monkeypatch):
        made = []
        init = interpreter._Interpreter.__init__

        def recording(self, program, config):
            init(self, program, config)
            made.append(weakref.ref(self))

        monkeypatch.setattr(interpreter._Interpreter, "__init__", recording)
        src = HEADER + "qubit[{}] q;\nbit[1] c;\nh q;\nmeasure q[0] -> c[0];\n"
        # 18 qubits after `h q`: a dense 4 MiB state, over _LEAF_BUDGET
        large = qmasm.parse_program(src.format(18))
        results = qmasm.run_shots(large, 0, 3)
        gc.collect()
        assert [r.status for r in results] == ["ok"] * 3
        assert len(made) == 1 and made[0]() is None
        small = qmasm.parse_program(src.format(2))
        qmasm.run_shots(small, 0, 3)
        gc.collect()
        assert len(made) == 2 and made[1]() is small._compiled.prefix


class TestNonFiniteNumbers:
    """A value that is not a finite number, or an integer of over 65536 bits,
    stops the shot with a ShotError naming its position, before the state
    changes."""

    PREFIX = HEADER + "qubit[1] q;\nbit[1] c;\nh q;\n"

    @pytest.mark.parametrize("line, message", [
        ("U(1e308*10, 0, 0) q[0];", "U parameter is not a finite number at line 5, col 1"),
        ("U(2**2000, 0, 0) q[0];", "U parameter is not a finite number at line 5, col 1"),
        ("U(1e308*10 - 1e308*10, 0, 0) q[0];",
         "U parameter is not a finite number at line 5, col 1"),
        ("gate g a { U(0, 1.5) a; }\ng q[0];", "U takes 3 parameters, got 2 at line 5"),
        ("int j = 1e308*10;", "inf is not a finite number at line 5"),
        ("h q[1e308*10 - 1e308*10];", "nan is not a finite number at line 5"),
        ("int j = 2.0**2000;", "numeric overflow at line 5"),
        ("int n = 2**2000; int k = n * 2.5;", "numeric overflow at line 5"),
        ("int j = 2 ** 2**2000;", "integer too large at line 5"),
        ("int j = 3 ** 65536;", "integer too large at line 5"),
        ("int j = 3; for k in [1:40] { j = j * j; }", "integer too large at line 5"),
        ("int j = 0 ** -1;", "division by zero at line 5"),
        ("int j = (0-8) ** 0.5;", "power with a complex result at line 5"),
    ])
    def test_shot_stops_before_the_state_changes(self, line, message):
        res = run(self.PREFIX + line + "\nmeasure q -> c[0];\n")
        assert res.status == "error"
        assert res.error.startswith("ShotError: ") and message in res.error
        untouched = run(self.PREFIX)
        assert res.final_state.amps.tobytes() == untouched.final_state.amps.tobytes()

    def test_large_finite_values_still_run(self):
        res = run(self.PREFIX + "int j = 2 ** 2000;\nint k = 2 ** 65535 - 1 + 2 ** 65535;\n"
                  "U(2 ** 0.5, 3 ** 2, 0) q[0];\n")
        assert res.status == "ok"
