import itertools
import math
import random

import numpy as np
import pytest

from qmemsim import assets, memdev, qmasm
from qmemsim import statevec as sv
from qmemsim.errors import ArgumentError, QmemError, ResourceError, ValidationFailure
from qmemsim.qmasm import interpreter, nodes

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

    def test_qubit_budget(self):
        with pytest.raises(ResourceError):
            run(HEADER + "qubit[20] a;\nqubit[8] b;\n")

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

    @pytest.mark.parametrize("name, src, config", FORK_CASES,
                             ids=[c[0] for c in FORK_CASES])
    def test_shots_equal_from_scratch_runs(self, name, src, config):
        program = qmasm.parse_program(src)
        seed = 40
        forked = outcome(lambda: qmasm.run_shots(program, seed, self.SHOTS, config))
        scratch = outcome(lambda: [qmasm.execute(program, seed + i, config)
                                   for i in range(self.SHOTS)])
        if isinstance(scratch, str):
            assert forked == scratch
            return
        assert [shot_fields(r) for r in forked] == [shot_fields(r) for r in scratch]
        for a, b in itertools.combinations(forked, 2):
            assert not np.shares_memory(a.final_state.amps, b.final_state.amps)
            for field in ("trace", "timeline", "warnings", "shot_log"):
                assert getattr(a, field) is not getattr(b, field)

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
        base = interpreter._Interpreter(program, 0, config)
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
