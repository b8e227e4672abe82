import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmemsim import memdev as md
from qmemsim import statevec as sv
from qmemsim.errors import AddressError, ArgumentError, PolicyError


def make_raqm(n_cells=4, policy="error"):
    # qubit 0 = bus, 1 = external helper, cells follow
    state = sv.init_state(2 + n_cells)
    dev = md.RaqmDevice(cell_qubits=tuple(range(2, 2 + n_cells)), store_policy=policy)
    return dev, state


def prepare_bus(state, amp0, amp1):
    """Put amp0|0>+amp1|1> on qubit 0 of a fresh all-zero state."""
    theta = 2 * math.atan2(abs(amp1), abs(amp0))
    phi = np.angle(amp1) - np.angle(amp0)
    sv.apply_gate(state, sv.gate("u", (0,), (theta, phi, 0.0)))
    return state


class TestQmcSwap:
    def test_product_swap(self):
        state = sv.init_state(2)
        prepare_bus(state, 0.6, 0.8)
        sv.apply_gate(state, sv.gate("x", (1,)))
        md.qmc_swap(state, 0, 1)
        # bus now |1>, cell holds 0.6|0>+0.8|1>
        expect = np.zeros(4, dtype=complex)
        expect[1] = 0.6
        expect[3] = 0.8
        assert np.allclose(state.amps, expect)

    def test_entanglement_swapped_to_cell(self):
        # e(q1) entangled with bus(q0); cell(q2) in |0>
        state = sv.init_state(3)
        sv.apply_gate(state, sv.gate("h", (1,)))
        sv.apply_gate(state, sv.gate("cnot", (1, 0)))
        md.qmc_swap(state, 0, 2)
        expect = sv.init_state(3)
        sv.apply_gate(expect, sv.gate("h", (1,)))
        sv.apply_gate(expect, sv.gate("cnot", (1, 2)))
        assert sv.state_fidelity(state, expect) >= 1 - 1e-12
        assert abs(sv.reduced_purity(state, [0]) - 1.0) < 1e-9
        assert abs(sv.reduced_purity(state, [2]) - 0.5) < 1e-9

    def test_involution(self):
        state = sv.init_state(2)
        prepare_bus(state, 1 / math.sqrt(2), 1j / math.sqrt(2))
        ref = state.copy()
        md.qmc_swap(state, 0, 1)
        md.qmc_swap(state, 0, 1)
        assert sv.state_fidelity(ref, state) >= 1 - 1e-12

    def test_same_index_rejected(self):
        state = sv.init_state(2)
        with pytest.raises(ArgumentError):
            md.qmc_swap(state, 1, 1)


class TestRaqmStoreLoad:
    def test_store_plus_state(self):
        dev, state = make_raqm()
        sv.apply_gate(state, sv.gate("h", (0,)))
        md.raqm_store(dev, state, 2, bus=0)
        assert dev.cell_status[2] == md.OCCUPIED
        expect = sv.init_state(6)
        sv.apply_gate(expect, sv.gate("h", (4,)))  # cell 2 lives on qubit 4
        assert sv.state_fidelity(state, expect) >= 1 - 1e-12

    def test_store_bell_half_transfers_entanglement(self):
        dev, state = make_raqm()
        sv.apply_gate(state, sv.gate("h", (1,)))
        sv.apply_gate(state, sv.gate("cnot", (1, 0)))
        md.raqm_store(dev, state, 0, bus=0)
        assert abs(sv.reduced_purity(state, [dev.cell_qubits[0]]) - 0.5) < 1e-9
        assert abs(sv.reduced_purity(state, [0]) - 1.0) < 1e-9

    def test_store_out_of_range(self):
        dev, state = make_raqm()
        with pytest.raises(AddressError):
            md.raqm_store(dev, state, 4, bus=0)

    def test_store_occupied_policy_error(self):
        dev, state = make_raqm(policy="error")
        md.raqm_store(dev, state, 1, bus=0)
        with pytest.raises(PolicyError):
            md.raqm_store(dev, state, 1, bus=0)

    def test_store_occupied_policy_swap(self):
        dev, state = make_raqm(policy="swap")
        sv.apply_gate(state, sv.gate("x", (0,)))
        md.raqm_store(dev, state, 1, bus=0)
        md.raqm_store(dev, state, 1, bus=0)  # swaps |0> in, |1> back out
        assert abs(state.probability(0, 1) - 1.0) < 1e-12

    def test_load_round_trip(self):
        dev, state = make_raqm()
        sv.apply_gate(state, sv.gate("h", (0,)))
        md.raqm_store(dev, state, 2, bus=0)
        md.raqm_load(dev, state, 2, bus=0)
        assert dev.cell_status[2] == md.RESET
        expect = sv.init_state(6)
        sv.apply_gate(expect, sv.gate("h", (0,)))
        assert sv.state_fidelity(state, expect) >= 1 - 1e-12

    def test_load_from_reset_cell_is_identity(self):
        dev, state = make_raqm()
        ref = state.copy()
        md.raqm_load(dev, state, 3, bus=0)
        assert sv.state_fidelity(ref, state) >= 1 - 1e-12

    def test_general_state_round_trip(self):
        dev, state = make_raqm()
        prepare_bus(state, 0.6, 0.8j)
        ref = state.copy()
        md.raqm_store(dev, state, 1, bus=0)
        md.raqm_load(dev, state, 1, bus=0)
        assert sv.state_fidelity(ref, state) >= 1 - 1e-12


class TestRaqmReset:
    def test_reset_one_state(self):
        dev, state = make_raqm()
        sv.apply_gate(state, sv.gate("x", (dev.cell_qubits[0],)))
        dev.cell_status[0] = md.OCCUPIED
        md.raqm_reset(dev, state, 0, np.random.default_rng(0))
        assert dev.cell_status[0] == md.RESET
        assert abs(state.probability(dev.cell_qubits[0], 0) - 1.0) < 1e-12

    def test_reset_collapses_partner(self):
        outcomes = set()
        for seed in range(20):
            dev, state = make_raqm()
            sv.apply_gate(state, sv.gate("h", (1,)))
            sv.apply_gate(state, sv.gate("cnot", (1, dev.cell_qubits[0])))
            md.raqm_reset(dev, state, 0, np.random.default_rng(seed))
            p1 = state.probability(1, 1)
            assert min(abs(p1), abs(p1 - 1.0)) < 1e-12  # partner collapsed
            assert abs(state.probability(dev.cell_qubits[0], 0) - 1.0) < 1e-12
            outcomes.add(round(p1))
        assert outcomes == {0, 1}

    def test_reset_all(self):
        dev, state = make_raqm()
        for q in dev.cell_qubits:
            sv.apply_gate(state, sv.gate("x", (q,)))
        dev.cell_status = [md.OCCUPIED] * 4
        md.raqm_reset(dev, state, None, np.random.default_rng(1))
        assert dev.cell_status == [md.RESET] * 4
        for q in dev.cell_qubits:
            assert abs(state.probability(q, 0) - 1.0) < 1e-12

    def test_reset_out_of_range(self):
        dev, state = make_raqm()
        with pytest.raises(AddressError):
            md.raqm_reset(dev, state, 9, np.random.default_rng(0))

    def test_reset_addresses(self):
        dev, _ = make_raqm()
        assert list(md.reset_addresses(dev, None)) == [0, 1, 2, 3]
        assert list(md.reset_addresses(dev, 2)) == [2]
        with pytest.raises(AddressError, match="address 4 out of range"):
            md.reset_addresses(dev, 4)


class TestBuffer:
    def make(self, capacity=2):
        state = sv.init_state(1 + capacity)
        dev = md.BufferDevice(cell_qubits=tuple(range(1, 1 + capacity)))
        return dev, state

    def test_write_to_empty(self):
        dev, state = self.make()
        sv.apply_gate(state, sv.gate("x", (0,)))
        status, state = md.buffer_write(dev, state, bus=0)
        assert status is md.BufferStatus.WRITE_STORED and status.sf_bit == 0
        assert dev.fifo_queue == [0]
        assert abs(state.probability(0, 0) - 1.0) < 1e-12
        assert abs(state.probability(dev.cell_qubits[0], 1) - 1.0) < 1e-12

    def test_overflow_leaves_state_alone(self):
        dev, state = self.make()
        md.buffer_write(dev, state, bus=0)
        md.buffer_write(dev, state, bus=0)
        sv.apply_gate(state, sv.gate("x", (0,)))
        ref = state.copy()
        status, state = md.buffer_write(dev, state, bus=0)
        assert status is md.BufferStatus.WRITE_OVERFLOW and status.sf_bit == 1
        assert sv.state_fidelity(ref, state) >= 1 - 1e-12

    def test_fifo_order(self):
        dev, state = self.make()
        sv.apply_gate(state, sv.gate("x", (0,)))
        md.buffer_write(dev, state, bus=0)       # writes |1>
        md.buffer_write(dev, state, bus=0)       # writes |0>
        assert dev.fifo_queue == [0, 1]
        status, state = md.buffer_read(dev, state, bus=0)
        assert status is md.BufferStatus.READ_SUCCESS and status.sf_bit == 1
        assert abs(state.probability(0, 1) - 1.0) < 1e-12  # |1> came out first

    def test_underflow(self):
        dev, state = self.make()
        ref = state.copy()
        status, state = md.buffer_read(dev, state, bus=0)
        assert status is md.BufferStatus.READ_UNDERFLOW and status.sf_bit == 0
        assert sv.state_fidelity(ref, state) >= 1 - 1e-12

    def test_write_read_round_trip(self):
        dev, state = self.make()
        prepare_bus(state, 0.8, 0.6)
        ref = state.copy()
        md.buffer_write(dev, state, bus=0)
        md.buffer_read(dev, state, bus=0)
        assert sv.state_fidelity(ref, state) >= 1 - 1e-12

    def test_status_bit_table(self):
        assert md.BufferStatus.READ_SUCCESS.sf_bit == 1
        assert md.BufferStatus.READ_UNDERFLOW.sf_bit == 0
        assert md.BufferStatus.WRITE_STORED.sf_bit == 0
        assert md.BufferStatus.WRITE_OVERFLOW.sf_bit == 1


class TestCacheAdmit:
    def test_direct_comparisons(self):
        assert md.cache_admit(4.0, 1.0, 2.0) is True
        assert md.cache_admit(2.0, 1.0, 2.0) is False  # strict inequality

    def test_derived_example(self):
        # cache: T_storage=100us, eta=1, T_op=40ns; main QM: T_RW=10us, eta=1
        alpha_ex_qc = 100e-6 * 1.0 / 40e-9
        beta_qm = (10e-6 / 1.0) / 40e-9
        assert beta_qm == pytest.approx(250)
        assert md.cache_admit(alpha_ex_qc, beta_qm) is True

    def test_bad_beta(self):
        with pytest.raises(ArgumentError):
            md.cache_admit(1.0, 0.0)


class TestInvariantProperties:
    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_store_load_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        dev, state = make_raqm()
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        a /= np.linalg.norm(a)
        prepare_bus(state, a[0], a[1])
        ref = state.copy()
        addr = int(rng.integers(4))
        md.raqm_store(dev, state, addr, bus=0)
        md.raqm_load(dev, state, addr, bus=0)
        assert sv.state_fidelity(ref, state) >= 1 - 1e-12
        for q in dev.cell_qubits:
            assert abs(state.probability(q, 0) - 1.0) < 1e-10

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=20, deadline=None)
    def test_distinct_address_stores_commute(self, seed):
        rng = np.random.default_rng(seed)
        a1, a2 = rng.choice(4, size=2, replace=False)
        # two bus qubits carrying different states
        def build(order):
            state = sv.init_state(6, labels=tuple(f"w{i}" for i in range(6)))
            dev = md.RaqmDevice(cell_qubits=(2, 3, 4, 5))
            sv.apply_gate(state, sv.gate("h", (0,)))
            sv.apply_gate(state, sv.gate("u", (1,), (1.2, 0.4, -0.3)))
            for addr, bus in order:
                md.raqm_store(dev, state, addr, bus)
            return state

        s1 = build([(int(a1), 0), (int(a2), 1)])
        s2 = build([(int(a2), 1), (int(a1), 0)])
        assert sv.state_fidelity(s1, s2) >= 1 - 1e-12


class TestMemoryDump:
    def test_dump_lines(self):
        dev, state = make_raqm(n_cells=2)
        sv.apply_gate(state, sv.gate("h", (1,)))
        sv.apply_gate(state, sv.gate("cnot", (1, dev.cell_qubits[0])))
        dev.cell_status[0] = md.OCCUPIED
        lines = md.memory_dump(dev, state)
        assert len(lines) == 2
        f0 = lines[0].split("\t")
        assert f0[0] == "0" and f0[1] == "occupied" and f0[3] == "entangled"
        assert abs(float(f0[2]) - 0.5) < 1e-9
        f1 = lines[1].split("\t")
        assert f1[1] == "reset" and f1[3].startswith("|0>:1.000000")
