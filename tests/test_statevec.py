import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmemsim import statevec as sv
from qmemsim.errors import ArgumentError, PostSelectionError, ResourceError


def bell_state():
    s = sv.init_state(2)
    sv.apply_gate(s, sv.gate("h", (0,)))
    sv.apply_gate(s, sv.gate("cnot", (0, 1)))
    return s


class TestInitState:
    def test_single_qubit_zero(self):
        s = sv.init_state(1, 0)
        assert np.allclose(s.amps, [1, 0])

    def test_two_qubit_three(self):
        s = sv.init_state(2, 3)
        assert np.allclose(s.amps, [0, 0, 0, 1])

    def test_max_size_allocates(self):
        s = sv.init_state(24, 0)
        assert s.amps.shape == (1 << 24,)
        assert abs(s.norm_error()) < 1e-12
        del s

    def test_capacity_exceeded(self):
        with pytest.raises(ResourceError, match="budget"):
            sv.init_state(25)

    def test_bad_basis_index(self):
        with pytest.raises(ArgumentError):
            sv.init_state(2, 4)


class TestApplyGate:
    def test_hadamard(self):
        s = sv.init_state(1)
        sv.apply_gate(s, sv.gate("h", (0,)))
        assert np.allclose(s.amps, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_swap_moves_general_state(self):
        # |psi> = 0.6|0> + 0.8|1> on q0, |1> on q1; SWAP exchanges them
        s = sv.init_state(2)
        s.amps[:] = 0
        s.amps[2] = 0.6  # q1=1, q0=0
        s.amps[3] = 0.8  # q1=1, q0=1
        sv.apply_gate(s, sv.gate("swap", (0, 1)))
        expect = np.zeros(4, dtype=complex)
        expect[1] = 0.6  # q0=1, q1=0
        expect[3] = 0.8
        assert np.allclose(s.amps, expect)

    def test_cnot_flips_target(self):
        s = sv.init_state(2, 1)  # q0=1
        sv.apply_gate(s, sv.gate("cnot", (0, 1)))
        assert np.allclose(s.amps, [0, 0, 0, 1])

    def test_cnot_no_flip_when_control_clear(self):
        s = sv.init_state(2, 2)  # q1=1, q0=0
        sv.apply_gate(s, sv.gate("cnot", (0, 1)))
        assert np.allclose(s.amps, [0, 0, 1, 0])

    def test_negative_control(self):
        s = sv.init_state(2, 0)
        sv.apply_gate(s, sv.gate("x", (1,), controls=(0,), control_values=(0,)))
        assert np.allclose(s.amps, [0, 0, 1, 0])

    def test_repeated_index_rejected(self):
        s = sv.init_state(2)
        with pytest.raises(ArgumentError, match="repeated"):
            sv.apply_gate(s, sv.gate("cnot", (0, 0)))
        with pytest.raises(ArgumentError, match="repeated"):
            sv.apply_gate(s, sv.gate("x", (0,), controls=(0,)))

    @pytest.mark.parametrize(
        "g",
        [
            sv.gate("h", (0,)),
            sv.gate("x", (0,)),
            sv.gate("u", (0,), (0.3, 1.1, -0.7)),
            sv.gate("rk", (0,), (3,)),
            sv.gate("swap", (0, 1)),
            sv.gate("cnot", (0, 1)),
        ],
    )
    def test_matrices_are_unitary(self, g):
        m = g.matrix()
        assert np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) < 1e-12

    def test_rk_power_is_z(self):
        # R_k composed 2^(k-1) times equals Z
        for k in range(1, 6):
            m = np.linalg.matrix_power(sv.rk_matrix(k), 2 ** (k - 1))
            assert np.max(np.abs(m - np.diag([1, -1]))) < 1e-10

    def test_rk_requires_positive_integer(self):
        with pytest.raises(ArgumentError):
            sv.rk_matrix(0)


class TestMeasurement:
    def test_deterministic_outcome(self):
        s = sv.init_state(2, 3)
        out, s = sv.measure_qubit(s, 0, np.random.default_rng(0))
        assert out == 1
        assert np.allclose(s.amps, [0, 0, 0, 1])

    def test_postselect_plus_state(self):
        s = sv.init_state(1)
        sv.apply_gate(s, sv.gate("h", (0,)))
        p, s = sv.postselect_qubit(s, 0, 1)
        assert abs(p - 0.5) < 1e-12
        assert np.allclose(s.amps, [0, 1])

    def test_postselect_zero_probability(self):
        s = sv.init_state(1, 0)
        with pytest.raises(PostSelectionError) as exc:
            sv.postselect_qubit(s, 0, 1)
        assert exc.value.probability < 1e-12

    def test_zero_probability_projection_leaves_state(self):
        s = bell_state()
        before = s.amps.copy()
        with pytest.raises(PostSelectionError):
            sv._project(s, 1, 1, 0.0)
        assert np.array_equal(s.amps, before)

    def test_born_statistics_seeded(self):
        rng = np.random.default_rng(7)
        ones = 0
        for _ in range(2000):
            s = sv.init_state(1)
            sv.apply_gate(s, sv.gate("h", (0,)))
            out, _ = sv.measure_qubit(s, 0, rng)
            ones += out
        assert abs(ones / 2000 - 0.5) < 0.05

    def test_encoding_subcircuit_aux_probability(self):
        # Amplitude-encoding pattern: uniform 4-qubit address, oracle copies a
        # 16-bit vector with 8 ones onto the bus, CX to an aux flag.
        # P(aux=1) must equal ones/16 = 0.5.
        vec = [0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0]
        s = sv.init_state(6)  # q0..q3 addr, q4 bus, q5 aux
        for q in range(4):
            sv.apply_gate(s, sv.gate("h", (q,)))
        for j, bit in enumerate(vec):
            if bit:
                vals = tuple((j >> i) & 1 for i in range(4))
                sv.apply_gate(s, sv.gate("x", (4,), controls=(0, 1, 2, 3),
                                         control_values=vals))
        sv.apply_gate(s, sv.gate("cnot", (4, 5)))
        assert abs(s.probability(5, 1) - 8 / 16) < 1e-12


class TestPurityAndFidelity:
    def test_bell_half_purity(self):
        assert abs(sv.reduced_purity(bell_state(), [0]) - 0.5) < 1e-9

    def test_product_state_purity(self):
        s = sv.init_state(2)
        sv.apply_gate(s, sv.gate("h", (1,)))
        assert abs(sv.reduced_purity(s, [0]) - 1.0) < 1e-9

    def test_subset_bounds(self):
        s = bell_state()
        with pytest.raises(ArgumentError):
            sv.reduced_purity(s, [])
        with pytest.raises(ArgumentError):
            sv.reduced_purity(s, [0, 1])
        with pytest.raises(ArgumentError):
            sv.reduced_purity(s, [0, 0])

    def test_fidelity_basics(self):
        z = sv.init_state(1, 0)
        o = sv.init_state(1, 1)
        plus = sv.init_state(1)
        sv.apply_gate(plus, sv.gate("h", (0,)))
        assert abs(sv.state_fidelity(z, z.copy()) - 1.0) < 1e-12
        assert sv.state_fidelity(z, o) < 1e-12
        assert abs(sv.state_fidelity(plus, z) - 0.5) < 1e-12

    def test_fidelity_dimension_mismatch(self):
        with pytest.raises(ArgumentError):
            sv.state_fidelity(sv.init_state(1), sv.init_state(2))


def random_gates(rng, n, count):
    gates = []
    for _ in range(count):
        kind = rng.choice(["h", "x", "u", "swap", "cnot", "rk"])
        if kind in ("swap", "cnot"):
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(sv.gate(kind, (int(a), int(b))))
        elif kind == "u":
            q = int(rng.integers(n))
            gates.append(sv.gate("u", (q,), tuple(rng.uniform(-np.pi, np.pi, 3))))
        elif kind == "rk":
            gates.append(sv.gate("rk", (int(rng.integers(n)),), (int(rng.integers(1, 6)),)))
        else:
            gates.append(sv.gate(kind, (int(rng.integers(n)),)))
    return gates


class TestInvariants:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_norm_preserved_by_gate_sequences(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        s = sv.init_state(n)
        sv.apply_gates(s, random_gates(rng, n, 30))
        assert s.norm_error() < 1e-10

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_swap_involution(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        s = sv.init_state(n)
        sv.apply_gates(s, random_gates(rng, n, 15))
        ref = s.copy()
        a, b = rng.choice(n, size=2, replace=False)
        sv.apply_gate(s, sv.gate("swap", (int(a), int(b))))
        sv.apply_gate(s, sv.gate("swap", (int(a), int(b))))
        assert sv.state_fidelity(ref, s) >= 1 - 1e-12

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_disjoint_gates_commute(self, seed):
        rng = np.random.default_rng(seed)
        s0 = sv.init_state(4)
        sv.apply_gates(s0, random_gates(rng, 4, 10))
        g1 = sv.gate("u", (0,), tuple(rng.uniform(-np.pi, np.pi, 3)))
        g2 = sv.gate("u", (2,), tuple(rng.uniform(-np.pi, np.pi, 3)), controls=(3,))
        s1 = s0.copy()
        sv.apply_gates(s0, [g1, g2])
        sv.apply_gates(s1, [g2, g1])
        assert sv.state_fidelity(s0, s1) >= 1 - 1e-12

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_purity_matches_complement(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        s = sv.init_state(n)
        sv.apply_gates(s, random_gates(rng, n, 25))
        size = int(rng.integers(1, n))
        subset = sorted(rng.choice(n, size=size, replace=False).tolist())
        complement = [q for q in range(n) if q not in subset]
        assert abs(sv.reduced_purity(s, subset) - sv.reduced_purity(s, complement)) < 1e-9


def random_permutation_gates(rng, n, count):
    """X/CNOT/SWAP gates with random controls and control values."""
    gates = []
    for _ in range(count):
        kind = str(rng.choice(["x", "cnot", "swap"]))
        width = 1 if kind == "x" else 2
        qubits = [int(q) for q in rng.permutation(n)]
        targets = qubits[:width]
        controls = qubits[width:width + int(rng.integers(0, 3))]
        values = [int(v) for v in rng.integers(0, 2, len(controls))]
        gates.append(sv.gate(kind, targets, controls=controls, control_values=values))
    return gates


class TestBasisPermutation:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_equals_dense_application(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps[rng.random(1 << n) < rng.random()] = 0.0  # some states sparse
        amps /= np.linalg.norm(amps) or 1.0
        gates = random_permutation_gates(rng, n, int(rng.integers(1, 25)))
        dense = sv.StateVector(n, amps.copy())
        moved = sv.StateVector(n, amps.copy())
        sv.apply_gates(dense, gates)
        sv.apply_basis_permutation(moved, gates)
        assert np.array_equal(dense.amps, moved.amps)

    def test_maps_indices(self):
        gates = [sv.gate("x", (0,)), sv.gate("cnot", (0, 2)),
                 sv.gate("swap", (1, 2), controls=(0,), control_values=(0,))]
        # 0b000 -> 0b101 -> swap skipped (q0 = 1); 0b010 -> 0b011 -> 0b111
        images = sv.permute_basis(np.array([0b000, 0b010]), gates, 3)
        assert images.tolist() == [0b101, 0b111]

    @pytest.mark.parametrize("g", [sv.gate("h", (0,)),
                                   sv.gate("u", (0,), (0.1, 0.2, 0.3)),
                                   sv.gate("rk", (0,), (2,))])
    def test_rejects_non_permutations(self, g):
        with pytest.raises(ArgumentError, match="not a basis permutation"):
            sv.permute_basis(np.arange(4), [g], 2)

    @pytest.mark.parametrize("g", [sv.gate("cnot", (1, 1)),
                                   sv.gate("x", (0,), controls=(0,)),
                                   sv.gate("swap", (0, 2)),
                                   sv.gate("x", (1,), controls=(-1,)),
                                   sv.gate("x", (0, 1))])
    def test_rejects_bad_qubits(self, g):
        with pytest.raises(ArgumentError):
            sv.permute_basis(np.arange(4), [g], 2)

    @pytest.mark.parametrize("indices, n", [([0, 4], 2), ([-1], 2), ([0], 0), ([0], 63)])
    def test_rejects_bad_indices_and_widths(self, indices, n):
        with pytest.raises(ArgumentError):
            sv.permute_basis(np.array(indices), [], n)

    def test_rejected_gate_leaves_state_alone(self):
        s = bell_state()
        before = s.amps.copy()
        with pytest.raises(ArgumentError):
            sv.apply_basis_permutation(s, [sv.gate("x", (0,)), sv.gate("h", (1,))])
        assert np.array_equal(s.amps, before)


class TestDump:
    def test_format_and_threshold(self):
        s = sv.init_state(2, 1)
        sv.apply_gate(s, sv.gate("h", (1,)))
        lines = sv.dump_state(s)
        assert lines == [
            "1\t01\t0.707106781187\t0",
            "3\t11\t0.707106781187\t0",
        ]

    def test_small_amplitudes_omitted(self):
        s = sv.init_state(1, 0)
        assert len(sv.dump_state(s)) == 1


def inspected_path(mat):
    """The kernel path the matrix itself calls for."""
    if sv._is_permutation(mat):
        return "perm"
    if sv._is_diagonal(mat):
        return "diag"
    return "dense"


NAN = float("nan")
PATH_GATES = [
    sv.gate("h", (0,)), sv.gate("x", (0,)), sv.gate("cnot", (0, 1)),
    sv.gate("swap", (0, 1)),
    sv.gate("u", (0,), (0.0, 0.0, 0.0)), sv.gate("u", (0,), (-0.0, 0.0, 0.0)),
    sv.gate("u", (0,), (0.0, 1.1, -1.1)), sv.gate("u", (0,), (0.0, 0.0, 0.7)),
    sv.gate("u", (0,), (0.0, 0.4, 0.7)), sv.gate("u", (0,), (0.3, 1.1, -0.7)),
    sv.gate("u", (0,), (math.pi, 0.0, math.pi)), sv.gate("u", (0,), (2 * math.pi, 0.0, 0.0)),
    sv.gate("u", (0,), (NAN, 0.0, 0.0)), sv.gate("u", (0,), (0.0, NAN, 0.0)),
    sv.gate("u", (0,), (0.0, 0.0, NAN)),
    *(sv.gate("rk", (0,), (k,)) for k in range(1, 9)),
]


class TestKernelPath:
    @pytest.mark.parametrize("g", PATH_GATES, ids=lambda g: f"{g.kind}{g.params}")
    def test_decision_equals_matrix_inspection(self, g):
        mat = g.matrix()
        path, rows = sv._kernel_path(g.kind, mat)
        want = inspected_path(mat)
        if want == "perm" and np.array_equal(mat, np.eye(len(mat))) and g.kind in ("u", "rk"):
            # the identity: the diagonal path leaves the state alone too
            assert (path, rows) == ("diag", None)
        else:
            assert path == want
        if path == "perm":
            assert rows == tuple(int(np.argmax(np.abs(mat[:, j]))) for j in range(len(mat)))

    @pytest.mark.parametrize("g", PATH_GATES, ids=lambda g: f"{g.kind}{g.params}")
    def test_results_equal_inspecting_kernel(self, g, monkeypatch):
        rng = np.random.default_rng(3)
        n = 4
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        for controls in ((), (3,), (2, 3)):
            spec = sv.GateSpec(g.kind, g.targets, g.params, controls, (0,) * len(controls))
            decided = sv.StateVector(n, amps.copy())
            sv.apply_gate(decided, spec)
            with monkeypatch.context() as m:
                m.setattr(sv, "_kernel_path", lambda kind, mat: sv._inspect(mat))
                inspected = sv.StateVector(n, amps.copy())
                sv.apply_gate(inspected, spec)
            assert decided.amps.tobytes() == inspected.amps.tobytes()

    def test_no_cache_grows_with_angles(self):
        rng = np.random.default_rng(0)
        s = sv.init_state(1)
        for params in rng.uniform(0, 2 * math.pi, size=(10_000, 3)):
            sv.apply_gate(s, sv.gate("u", (0,), params))
        assert set(sv._FIXED_PATHS) == {"h", "x", "cnot", "swap"}


def whole_view_apply(state, g):
    """The whole-view kernel: apply_gate with every view of the permutation
    and dense paths copied at once. The reference that the blocked kernel
    must equal byte for byte."""
    n = state.num_qubits
    mat = g.matrix()
    k = len(g.targets)
    special = sorted(set(g.targets) | set(g.controls), reverse=True)
    dims, axis_of, prev = [], {}, n
    for b in special:
        dims.append(1 << (prev - b - 1))
        axis_of[b] = len(dims)
        dims.append(2)
        prev = b
    dims.append(1 << prev)
    psi = state.amps.reshape(dims)
    base = [slice(None)] * len(dims)
    for q, v in zip(g.controls, g.values()):
        base[axis_of[q]] = v

    def view(combo):
        idx = list(base)
        for i, q in enumerate(g.targets):
            idx[axis_of[q]] = (combo >> (k - 1 - i)) & 1
        return psi[tuple(idx)]

    dim = 1 << k
    path, rows = sv._kernel_path(g.kind, mat)
    if path == "perm":
        moved = {}
        for src, dst in enumerate(rows):
            if dst != src:
                moved[dst] = view(src).copy()
        for dst, data in moved.items():
            view(dst)[...] = data
    elif path == "diag":
        for j in range(dim):
            if mat[j, j] != 1:
                view(j)[...] *= mat[j, j]
    else:
        inputs = [view(j).copy() for j in range(dim)]
        for i in range(dim):
            acc = mat[i, 0] * inputs[0]
            for j in range(1, dim):
                if mat[i, j] != 0:
                    acc += mat[i, j] * inputs[j]
            view(i)[...] = acc
    return state


KIND_PARAMS = {"h": (), "x": (), "cnot": (), "swap": (), "u": (0.3, 1.1, -0.7), "rk": (3,)}


def placed_gates(n):
    """Every kind with 0-2 controls (mixed values), with the touched qubits at
    the bottom, the top, and both ends of the register, so that the longest
    untouched run is the last axis, the first, or one between touched qubits;
    and spread out, so that several untouched runs are long."""
    placements = {
        "low": [0, 1, 2, 3],
        "high": [n - 1, n - 2, n - 3, n - 4],
        "ends": [0, n - 1, 1, n - 2],
        "spread": [3 * n // 4, n // 4, n // 2, 0],
    }
    gates = []
    for kind, params in KIND_PARAMS.items():
        width = 2 if kind in ("cnot", "swap") else 1
        for qubits in placements.values():
            for nc in range(3):
                gates.append(sv.gate(kind, qubits[:width], params,
                                     qubits[width:width + nc], (0, 1)[:nc]))
    return gates


def random_amps(n, seed=0):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


def full_matrix(n, g):
    """The 2^n x 2^n unitary of a (controlled) gate, built with np.kron."""
    def embedded(ops):
        m = np.ones((1, 1))
        for q in reversed(range(n)):  # qubit 0 is the least significant
            m = np.kron(m, ops.get(q, np.eye(2)))
        return m

    def unit(r, c):
        e = np.zeros((2, 2))
        e[r, c] = 1
        return e

    mat = g.matrix()
    k = len(g.targets)
    ctrl = {q: unit(v, v) for q, v in zip(g.controls, g.values())}
    full = np.eye(1 << n) - embedded(ctrl)
    for r, c in zip(*np.nonzero(mat)):
        ops = dict(ctrl)
        for i, q in enumerate(g.targets):
            ops[q] = unit((r >> (k - 1 - i)) & 1, (c >> (k - 1 - i)) & 1)
        full = full + mat[r, c] * embedded(ops)
    return full


class TestBlockedKernel:
    @pytest.mark.parametrize("n", [4, 9, 14, 15, 17, 20])
    def test_equals_whole_view_kernel_bytewise(self, n):
        amps = random_amps(n)
        for g in placed_gates(n):
            blocked = sv.apply_gate(sv.StateVector(n, amps.copy()), g)
            whole = whole_view_apply(sv.StateVector(n, amps.copy()), g)
            assert blocked.amps.tobytes() == whole.amps.tobytes(), g

    @pytest.mark.parametrize("controls", [(), (14,), (3, 14)])
    def test_identity_permutation_leaves_state_alone(self, controls, monkeypatch):
        # U(0,0,0) is the identity, which the matrix-inspecting kernel sends
        # down the permutation path with no view to move.
        monkeypatch.setattr(sv, "_kernel_path", lambda kind, mat: sv._inspect(mat))
        g = sv.gate("u", (0,), (0.0, 0.0, 0.0), controls, (1, 0)[:len(controls)])
        assert sv._kernel_path(g.kind, g.matrix()) == ("perm", (0, 1))
        amps = random_amps(15)
        s = sv.apply_gate(sv.StateVector(15, amps.copy()), g)
        assert s.amps.tobytes() == amps.tobytes()

    @pytest.mark.parametrize("n", [4, 8])
    def test_matches_kron_matrix(self, n):
        amps = random_amps(n, seed=n)
        for g in placed_gates(n):
            s = sv.apply_gate(sv.StateVector(n, amps.copy()), g)
            assert np.max(np.abs(s.amps - full_matrix(n, g) @ amps)) < 1e-12, g

    def test_no_half_state_temporaries(self):
        import tracemalloc

        n = 20  # 16 MiB of amplitudes; a half-state copy is 8 MiB
        s = sv.StateVector(n, random_amps(n))
        for g in placed_gates(n):
            tracemalloc.start()
            try:
                sv.apply_gate(s, g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 << 20, (g, peak)

    @pytest.mark.parametrize("shape", [(1,), (8192,), (16384,), (2, 8192), (1 << 12, 1 << 11),
                                       (4, 2, 1 << 14), (1 << 14, 4, 1)])
    def test_blocks_tile_the_array(self, shape):
        seen = np.zeros(shape, dtype=int)
        for block in sv._blocks(shape):
            assert seen[block].size <= sv._DENSE_BLOCK
            seen[block] += 1
        assert (seen == 1).all()
