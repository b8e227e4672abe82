import math

import numpy as np
import pytest

from qmemsim import qram
from qmemsim import statevec as sv
from qmemsim.errors import ArgumentError, ConfigError, ResourceError, StateError


def lean_setup(n, data=None, materialize=False, word_len=1):
    """addr qubits [0,n), bus [n, n+w), memory cells above when materialized."""
    w = word_len
    total = n + w + ((1 << n) * w if materialize else 0)
    state = sv.init_state(total)
    mem = tuple(range(n + w, total)) if materialize else ()
    dev = qram.QramDevice(addr_len=n, word_len=w, memory_qubits=mem)
    if data is not None:
        qram.qinit_load(dev, data, state if materialize else None)
    return dev, state


def expected_state(n, branches, materialized_cells=True):
    """Build sum_j amp_j |addr_j>|bus_j>|cells_j> directly from branch tuples."""
    cells = (1 << n) if materialized_cells else 0
    total = n + 1 + cells
    amps = np.zeros(1 << total, dtype=complex)
    for amp, addr, bus, cell_bits in branches:
        idx = addr | (bus << n)
        if materialized_cells:
            value = sum(b << i for i, b in enumerate(cell_bits))
            idx |= value << (n + 1)
        amps[idx] += amp
    return sv.StateVector(total, amps)


class TestQinitLoad:
    def test_stores_data(self):
        dev, _ = lean_setup(2)
        qram.qinit_load(dev, [1, 0, 0, 1])
        assert dev.classical_data == [1, 0, 0, 1]

    def test_materialized_cells_set(self):
        dev, state = lean_setup(2, data=[1, 0, 0, 1], materialize=True)
        # cells live on qubits 3..6; expect |1001> on them (cell0=1, cell3=1)
        assert abs(state.probability(3, 1) - 1) < 1e-12
        assert abs(state.probability(4, 0) - 1) < 1e-12
        assert abs(state.probability(5, 0) - 1) < 1e-12
        assert abs(state.probability(6, 1) - 1) < 1e-12

    def test_materialized_flips_equal_dense_x(self):
        # a full-support state, so every amplitude moves
        dev, state = lean_setup(2, materialize=True)
        rng = np.random.default_rng(5)
        size = state.amps.size
        state.amps[:] = rng.normal(size=size) + 1j * rng.normal(size=size)
        dense = state.copy()
        data = [1, 0, 1, 1]
        qram.qinit_load(dev, data, state)
        for q, b in zip(dev.memory_qubits, data):
            if b:
                sv.apply_gate(dense, sv.gate("x", (q,)))
        assert np.array_equal(state.amps, dense.amps)

    def test_length_mismatch(self):
        dev, _ = lean_setup(2)
        with pytest.raises(ArgumentError, match="expected 4"):
            qram.qinit_load(dev, [1, 0, 1])

    def test_sixteen_bit_vector(self):
        dev, _ = lean_setup(4)
        vec = [0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0]
        qram.qinit_load(dev, vec)
        assert dev.classical_data == vec


class TestOracleQuery:
    def test_bell_address(self):
        # addr = (|00> + |11>)/sqrt(2), x = [1,0,0,1]: both branches read 1
        dev, state = lean_setup(2, data=[1, 0, 0, 1])
        sv.apply_gate(state, sv.gate("h", (0,)))
        sv.apply_gate(state, sv.gate("cnot", (0, 1)))
        qram.oracle_query(dev, state, (0, 1), (2,))
        expect = expected_state(2, [
            (1 / math.sqrt(2), 0b00, 1, None),
            (1 / math.sqrt(2), 0b11, 1, None),
        ], materialized_cells=False)
        assert sv.state_fidelity(state, expect) >= 1 - 1e-12

    def test_uniform_sixteen(self):
        vec = [0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0]
        dev, state = lean_setup(4, data=vec)
        for q in range(4):
            sv.apply_gate(state, sv.gate("h", (q,)))
        qram.oracle_query(dev, state, (0, 1, 2, 3), (4,))
        for j in range(16):
            idx = j | (vec[j] << 4)
            assert abs(abs(state.amps[idx]) - 2 ** -2) < 1e-10
            assert abs(state.amps[j | ((1 - vec[j]) << 4)]) < 1e-12

    def test_zero_data_is_identity(self):
        dev, state = lean_setup(2, data=[0, 0, 0, 0])
        sv.apply_gate(state, sv.gate("h", (0,)))
        ref = state.copy()
        qram.oracle_query(dev, state, (0, 1), (2,))
        assert sv.state_fidelity(state, ref) >= 1 - 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_basis_addresses_exact(self, n):
        rng = np.random.default_rng(n)
        data = [int(b) for b in rng.integers(0, 2, 1 << n)]
        for j in range(1 << n):
            dev, state = lean_setup(n, data=data)
            state.amps[:] = 0
            state.amps[j] = 1.0
            qram.oracle_query(dev, state, tuple(range(n)), (n,))
            assert abs(state.amps[j | (data[j] << n)] - 1.0) < 1e-12

    def test_amplitude_preservation(self):
        rng = np.random.default_rng(11)
        dev, state = lean_setup(3, data=[int(b) for b in rng.integers(0, 2, 8)])
        c = rng.normal(size=8) + 1j * rng.normal(size=8)
        c /= np.linalg.norm(c)
        state.amps[:8] = c
        qram.oracle_query(dev, state, (0, 1, 2), (3,))
        for j in range(8):
            idx = j | (dev.classical_data[j] << 3)
            assert abs(state.amps[idx] - c[j]) < 1e-10

    def test_no_data_loaded(self):
        dev, state = lean_setup(2)
        with pytest.raises(StateError, match="qinit"):
            qram.oracle_query(dev, state, (0, 1), (2,))

    def test_index_overlap(self):
        dev, state = lean_setup(2, data=[1, 0, 0, 1])
        with pytest.raises(ArgumentError):
            qram.oracle_query(dev, state, (0, 1), (1,))

    def test_double_query_uncomputes_bus(self):
        dev, state = lean_setup(3, data=[1, 1, 0, 1, 0, 0, 1, 0])
        for q in range(3):
            sv.apply_gate(state, sv.gate("h", (q,)))
        ref = state.copy()
        qram.oracle_query(dev, state, (0, 1, 2), (3,))
        qram.oracle_query(dev, state, (0, 1, 2), (3,))
        assert sv.state_fidelity(state, ref) >= 1 - 1e-12


class TestApplyMode:
    def test_read_classical_swap(self):
        # addr = (|00> + |01>)/sqrt(2), x = [1,0,0,1]
        dev, state = lean_setup(2, data=[1, 0, 0, 1], materialize=True)
        sv.apply_gate(state, sv.gate("h", (0,)))
        mode = qram.QramMode.parse("read-classical-swap")
        qram.apply_mode(dev, state, mode, (0, 1), (2,))
        expect = expected_state(2, [
            (1 / math.sqrt(2), 0b00, 1, (0, 0, 0, 1)),  # cell 0 swapped to |0>
            (1 / math.sqrt(2), 0b01, 0, (1, 0, 0, 1)),  # cell 1 already |0>
        ])
        assert sv.state_fidelity(state, expect) >= 1 - 1e-12

    def test_write_classical_cnot_bus_factors(self):
        # bus |1> uncorrelated with addr superposition; memory reset
        dev, state = lean_setup(2, materialize=True)
        sv.apply_gate(state, sv.gate("h", (0,)))
        sv.apply_gate(state, sv.gate("x", (2,)))
        mode = qram.QramMode.parse("write-classical-cnot")
        qram.apply_mode(dev, state, mode, (0, 1), (2,))
        expect = expected_state(2, [
            (1 / math.sqrt(2), 0b00, 1, (1, 0, 0, 0)),
            (1 / math.sqrt(2), 0b01, 1, (0, 1, 0, 0)),
        ])
        assert sv.state_fidelity(state, expect) >= 1 - 1e-12
        assert abs(sv.reduced_purity(state, [2]) - 1.0) < 1e-9  # bus product

    def test_write_quantum_swap_resets_bus(self):
        dev, state = lean_setup(2, materialize=True)
        sv.apply_gate(state, sv.gate("h", (0,)))
        # bus entangled with addr: rotate bus conditioned on addr bit 0
        sv.apply_gate(state, sv.gate("u", (2,), (0.9, 0.3, 0.1), controls=(0,)))
        sv.apply_gate(state, sv.gate("u", (2,), (1.7, -0.4, 0.6), controls=(0,),
                                     control_values=(0,)))
        mode = qram.QramMode.parse("write-quantum-swap")
        qram.apply_mode(dev, state, mode, (0, 1), (2,))
        assert abs(state.probability(2, 0) - 1.0) < 1e-12  # bus ends |0>
        assert abs(sv.reduced_purity(state, [2]) - 1.0) < 1e-9
        # addr and memory carry the payload now
        assert sv.reduced_purity(state, [0, 1]) < 1 - 1e-3

    def test_quantum_mode_needs_memory(self):
        dev, state = lean_setup(2)
        with pytest.raises(ConfigError):
            qram.apply_mode(dev, state, qram.QramMode.parse("read-quantum-swap"),
                            (0, 1), (2,))

    def test_lean_read_classical_cnot_delegates_to_oracle(self):
        dev, state = lean_setup(2, data=[1, 0, 0, 1])
        sv.apply_gate(state, sv.gate("h", (0,)))
        copy = state.copy()
        qram.apply_mode(dev, state, qram.QramMode.parse("read-classical-cnot"),
                        (0, 1), (2,))
        qram.oracle_query(dev, copy, (0, 1), (2,))
        assert sv.state_fidelity(state, copy) >= 1 - 1e-12


class TestCircuitBackend:
    def test_budget(self):
        dev = qram.QramDevice(addr_len=4)
        with pytest.raises(ResourceError):
            qram.build_router_program(dev, qram.ALL_MODES[0])

    def test_wide_word_qubit_budget(self):
        # n=3, w=2 needs 31 qubits: over the 24-qubit layout budget
        dev = qram.QramDevice(addr_len=3, word_len=2)
        with pytest.raises(ResourceError, match="budget"):
            qram.build_router_program(dev, qram.ALL_MODES[0])

    @pytest.mark.parametrize("mode", [m.name for m in qram.ALL_MODES])
    def test_n1_matches_functional(self, mode):
        r = qram.check_mode(1, qram.QramMode.parse(mode), seed=5)
        assert r.fidelity >= 1 - 1e-9
        assert r.ancilla_zero_prob ** 2 >= 1 - 1e-9

    def test_n2_read_classical_cnot(self):
        r = qram.check_mode(2, qram.QramMode.parse("read-classical-cnot"), seed=9)
        assert r.passed

    @pytest.mark.parametrize("mode", [m.name for m in qram.ALL_MODES])
    def test_n3_spot(self, mode):
        r = qram.check_mode(3, qram.QramMode.parse(mode), seed=123)
        assert r.passed, (r.fidelity, r.pattern)


class TestIndexPathMatchesDense:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("mode", [m.name for m in qram.ALL_MODES])
    def test_router_program(self, mode, n):
        """Router program on the support's indices == dense run_circuit_mode."""
        mode = qram.QramMode.parse(mode)
        layout = qram.circuit_layout(n)
        dev = qram.QramDevice(addr_len=n, memory_qubits=layout.memory)
        small = qram.prepare_mode_input(dev, mode, layout, np.random.default_rng(n),
                                        sv.init_state(layout.data_qubits))
        dense = sv.embed_low(small, layout.total_qubits)
        moved = dense.copy()
        qram.run_circuit_mode(dev, dense, mode, layout)
        sv.apply_basis_permutation(moved, qram.build_router_program(dev, mode, layout))
        assert np.array_equal(dense.amps, moved.amps)


class TestEntanglementProfile:
    @pytest.mark.parametrize("mode,pattern", sorted(qram.MODE_PATTERNS.items()))
    def test_patterns_on_generic_inputs(self, mode, pattern):
        for seed in (0, 1, 2):
            profile = qram.profile_mode(2, qram.QramMode.parse(mode), seed)
            assert profile.pattern == pattern, profile.purities

    def test_read_classical_cnot_memory_pure(self):
        profile = qram.profile_mode(2, qram.QramMode.parse("read-classical-cnot"), 3)
        assert profile.purities["memory"] >= 1 - 1e-6

    def test_write_classical_swap_bus_pure(self):
        profile = qram.profile_mode(2, qram.QramMode.parse("write-classical-swap"), 3)
        assert profile.purities["bus"] >= 1 - 1e-6
        assert profile.purities["memory"] <= 1 - 1e-3


class TestWideWords:
    def test_oracle_word_len_two(self):
        # n=1, w=2: data words [x_00 x_01, x_10 x_11] = [1,0], [0,1]
        dev, state = lean_setup(1, data=[1, 0, 0, 1], word_len=2)
        sv.apply_gate(state, sv.gate("h", (0,)))
        qram.oracle_query(dev, state, (0,), (1, 2))
        # branch j=0: bus bits (1,0) -> bus value 1; j=1: bus (0,1) -> value 2
        expect = np.zeros(8, dtype=complex)
        expect[0b010] = 1 / math.sqrt(2)   # addr 0, bus=01
        expect[0b101] = 1 / math.sqrt(2)   # addr 1, bus=10
        assert np.allclose(state.amps, expect)

    def test_apply_mode_word_len_two_swap(self):
        dev, state = lean_setup(1, data=[1, 1, 0, 0], word_len=2, materialize=True)
        mode = qram.QramMode.parse("read-classical-swap")
        sv.apply_gate(state, sv.gate("x", (0,)))  # basis address 1
        qram.apply_mode(dev, state, mode, (0,), (1, 2))
        # address 1 selects cells 2,3 (values 0,0): bus stays 00, cells swap to 00
        assert abs(state.probability(1, 0) - 1) < 1e-12
        assert abs(state.probability(2, 0) - 1) < 1e-12
        # cells of word 0 still hold their 1,1 data
        assert abs(state.probability(dev.memory_qubits[0], 1) - 1) < 1e-12
        assert abs(state.probability(dev.memory_qubits[1], 1) - 1) < 1e-12


class TestBasisAddressReduction:
    def test_swap_read_reduces_to_raqm_load(self):
        from qmemsim import memdev as md

        for addr in range(4):
            dev, state = lean_setup(2, materialize=True)
            cells = dev.memory_qubits
            # put distinct states in the cells
            for i, q in enumerate(cells):
                sv.apply_gate(state, sv.gate("u", (q,), (0.4 + 0.5 * i, 0.2, 0.1)))
            state.amps[:] = np.roll(state.amps, 0)  # no-op, keeps amps
            # select the basis address
            for i in range(2):
                if (addr >> i) & 1:
                    sv.apply_gate(state, sv.gate("x", (i,)))
            twin = state.copy()

            qram.apply_mode(dev, state, qram.QramMode.parse("read-quantum-swap"),
                            (0, 1), (2,))
            raqm = md.RaqmDevice(cell_qubits=cells)
            md.raqm_load(raqm, twin, addr, bus=2)
            assert sv.state_fidelity(state, twin) >= 1 - 1e-12

    def test_swap_write_reduces_to_raqm_store(self):
        from qmemsim import memdev as md

        for addr in range(4):
            dev, state = lean_setup(2, materialize=True)
            sv.apply_gate(state, sv.gate("u", (2,), (1.1, 0.4, -0.2)))  # bus payload
            for i in range(2):
                if (addr >> i) & 1:
                    sv.apply_gate(state, sv.gate("x", (i,)))
            twin = state.copy()

            qram.apply_mode(dev, state, qram.QramMode.parse("write-quantum-swap"),
                            (0, 1), (2,))
            raqm = md.RaqmDevice(cell_qubits=dev.memory_qubits)
            md.raqm_store(raqm, twin, addr, bus=2)
            assert sv.state_fidelity(state, twin) >= 1 - 1e-12


def reference_address_circuit(rng, qubits):
    """The address draw one candidate at a time: each candidate's gates are
    built and run on a probe before the next is drawn."""
    n = len(qubits)
    floor = 0.25 / (1 << n)
    for _ in range(qram._MAX_REROLLS):
        gates = []
        for q in qubits:
            gates.append(sv.gate("u", (q,), tuple(rng.uniform(0.3, np.pi - 0.3, 3))))
        for a, b in zip(qubits, qubits[1:]):
            gates.append(sv.gate("cnot", (a, b)))
        for q in qubits:
            gates.append(sv.gate("u", (q,), tuple(rng.uniform(0.3, np.pi - 0.3, 3))))
        probe = sv.init_state(n)
        sv.apply_gates(probe, [sv.GateSpec(g.kind, tuple(qubits.index(t) for t in g.targets),
                                           g.params) for g in gates])
        if np.min(np.abs(probe.amps) ** 2) >= floor:
            return gates
    raise RuntimeError("could not draw a generic address state")


def gate_bytes(gates):
    """Each gate's kind, qubits and the bytes of its float64 parameters."""
    return [(g.kind, g.targets, g.controls, g.control_values,
             np.array(g.params, dtype=np.float64).tobytes()) for g in gates]


def draw_both(n, seed):
    """(gates or None, final RNG state) of the batched draw and the reference."""
    out = []
    for draw in (qram._generic_address_circuit, reference_address_circuit):
        rng = np.random.default_rng(seed)
        # the address register sits above two other qubits, as in a layout
        try:
            gates = gate_bytes(draw(rng, list(range(2, 2 + n))))
        except RuntimeError:
            gates = None
        out.append((gates, rng.bit_generator.state))
    return out


class TestAddressDraw:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_same_gates_and_rng_state_as_reference(self, n):
        for seed in range(200):
            batched, reference = draw_both(n, seed)
            assert batched[0] is not None
            assert batched == reference, seed

    @pytest.mark.parametrize("limit", [1, 2, 3])
    def test_reroll_limit_raises_with_reference(self, monkeypatch, limit):
        monkeypatch.setattr(qram, "_MAX_REROLLS", limit)
        outcomes = set()
        for n in (1, 2, 3):
            for seed in range(40):
                batched, reference = draw_both(n, seed)
                assert batched == reference, (n, seed)
                outcomes.add(batched[0] is None)
        assert outcomes == {True, False}  # some seeds raise, some draw

    def test_exact_probe_alone_gives_the_same_results(self, monkeypatch):
        cases = [(n, mode, seed) for n in (1, 2, 3) for mode in qram.ALL_MODES
                 for seed in (0, 1)]
        screened = [qram.check_mode(*case) for case in cases]
        probes = []
        probe_min = qram._probe_min
        monkeypatch.setattr(qram, "_PROBE_MARGIN", 1e9)
        monkeypatch.setattr(qram, "_probe_min",
                            lambda *a: probes.append(1) or probe_min(*a))
        assert [qram.check_mode(*case) for case in cases] == screened
        assert len(probes) >= len(cases)  # every candidate went to the probe
        for n in (1, 2, 3):
            for seed in range(20):
                batched, reference = draw_both(n, seed)
                assert batched == reference

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_form_mins_match_the_probe(self, n):
        qubits = list(range(1, 1 + n))
        angles = qram._draw_address_angles(np.random.default_rng(n), n, 400)
        mins = qram._address_mins(angles)
        exact = [qram._probe_min(qram._address_gates(qubits, a), qubits) for a in angles]
        assert np.max(np.abs(mins - exact)) <= 1e-12


class TestRouterImages:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("mode", [m.name for m in qram.ALL_MODES])
    def test_equal_to_the_router_program(self, mode, n):
        mode = qram.QramMode.parse(mode)
        layout = qram.circuit_layout(n)
        dev = qram.QramDevice(addr_len=n, memory_qubits=layout.memory)
        expect = sv.permute_basis(np.arange(1 << layout.data_qubits),
                                  qram.build_router_program(dev, mode, layout),
                                  layout.total_qubits)
        images = qram._router_images(n, mode)
        assert np.array_equal(images, expect)
        assert not images.flags.writeable

    def test_built_once_per_mode(self, monkeypatch):
        builds = []
        build = qram.build_router_program
        monkeypatch.setattr(qram, "build_router_program",
                            lambda *a: builds.append(a[1]) or build(*a))
        qram._router_images.cache_clear()
        for seed in range(16):
            qram.check_mode(3, qram.ALL_MODES[seed % 8], seed)
        assert len(builds) <= 8 and set(builds) == set(qram.ALL_MODES)
