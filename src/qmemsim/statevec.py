"""Dense statevector kernel: gate application, measurement, purity diagnostics.

Conventions used across the package:
  - qubit index 0 is the least-significant bit of the computational basis
    index, so register element q[0] is the LSB of any integer interpretation;
  - gate matrices index their rows/columns with the *first* target qubit as
    the most significant bit (CNOT(control, target) is the usual 4x4 matrix);
  - states are held in a flat complex128 array of length 2**num_qubits;
  - DEFAULT_MAX_QUBITS is the package's one qubit budget: init_state,
    embed_low, the interpreter's layout and the QRAM router layout check it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, PostSelectionError, ResourceError

DEFAULT_MAX_QUBITS = 24
NORM_TOL = 1e-10
POSTSELECT_MIN_PROB = 1e-12

_SQRT2 = math.sqrt(2.0)

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / _SQRT2
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)


def u_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """Single-qubit U(theta, phi, lambda), so U(0, 0, lam) = diag(1, e^{i lam})."""
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=np.complex128,
    )


def rk_matrix(k: int) -> np.ndarray:
    """Phase gate diag(1, e^{i 2 pi / 2^k}) for integer k >= 1."""
    if int(k) != k or k < 1:
        raise ArgumentError(f"rk gate needs an integer k >= 1, got {k!r}")
    return np.array([[1, 0], [0, np.exp(2j * np.pi / 2**k)]], dtype=np.complex128)


@dataclass(frozen=True)
class GateSpec:
    """A unitary to apply: base kind + parameters + target/control qubits.

    `controls` may carry classical control values in `control_values`
    (0 = trigger on |0>, 1 = trigger on |1>); default is all-ones.
    """

    kind: str  # "u" | "h" | "x" | "cnot" | "swap" | "rk"
    targets: tuple[int, ...]
    params: tuple[float, ...] = ()
    controls: tuple[int, ...] = ()
    control_values: tuple[int, ...] = ()

    def __post_init__(self):
        if self.control_values and len(self.control_values) != len(self.controls):
            raise ArgumentError("control_values length must match controls")

    def values(self) -> tuple[int, ...]:
        return self.control_values if self.control_values else (1,) * len(self.controls)

    def matrix(self) -> np.ndarray:
        """Base (uncontrolled) matrix over the target qubits."""
        if self.kind == "h":
            return _H
        if self.kind == "x":
            return _X
        if self.kind == "swap":
            return _SWAP
        if self.kind == "cnot":
            return _CNOT
        if self.kind == "u":
            return u_matrix(*self.params)
        if self.kind == "rk":
            return rk_matrix(int(self.params[0]))
        raise ArgumentError(f"unknown gate kind {self.kind!r}")


def gate(kind, targets, params=(), controls=(), control_values=()):
    """Shorthand constructor for a GateSpec."""
    return GateSpec(
        kind=kind,
        targets=tuple(targets),
        params=tuple(params),
        controls=tuple(controls),
        control_values=tuple(control_values),
    )


@dataclass
class StateVector:
    """Normalized amplitudes over an ordered set of named qubits."""

    num_qubits: int
    amps: np.ndarray
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if not self.labels:
            self.labels = tuple(f"q{i}" for i in range(self.num_qubits))
        if len(self.labels) != self.num_qubits:
            raise ArgumentError("one label per qubit required")
        if self.amps.shape != (1 << self.num_qubits,):
            raise ArgumentError(
                f"amplitude array must have length 2^{self.num_qubits}"
            )

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amps.copy(), self.labels)

    def norm_error(self) -> float:
        return abs(float(np.vdot(self.amps, self.amps).real) - 1.0)

    def probability(self, qubit: int, value: int = 1) -> float:
        """Probability of measuring `value` on one qubit."""
        _check_index(self.num_qubits, qubit)
        view = self.amps.reshape(-1, 2, 1 << qubit)
        sel = view[:, value, :]
        return float(np.sum(np.abs(sel) ** 2))


def init_state(num_qubits: int, basis_index: int = 0, labels=None) -> StateVector:
    """Computational basis state |basis_index> on `num_qubits` qubits."""
    if num_qubits < 1:
        raise ArgumentError("need at least one qubit")
    if num_qubits > DEFAULT_MAX_QUBITS:
        raise ResourceError(
            f"{num_qubits} qubits exceeds the configured budget of {DEFAULT_MAX_QUBITS}")
    if not 0 <= basis_index < (1 << num_qubits):
        raise ArgumentError(
            f"basis index {basis_index} out of range for {num_qubits} qubits"
        )
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[basis_index] = 1.0
    return StateVector(num_qubits, amps, tuple(labels) if labels else ())


def apply_gate(state: StateVector, g: GateSpec) -> StateVector:
    """Apply a (possibly controlled) gate in place; returns the same state.

    Works on strided views of the amplitude tensor, with fast paths for
    permutation matrices (X/CNOT/SWAP families) and diagonal matrices
    (phase gates), so no index arrays are ever materialized.

    The permutation and dense paths copy their inputs one block of at most
    _DENSE_BLOCK amplitudes per view at a time (see _blocks), so every
    temporary stays cache-sized whatever the state size; a view that fits in
    one block is processed whole. Each output amplitude gets the same
    element-wise arithmetic on the same contiguous copies as when the whole
    view is copied at once (m[i,0]*in_0, then += m[i,j]*in_j for each
    nonzero m[i,j]), so the result is the same bit for bit.
    """
    n = state.num_qubits
    _check_gate_qubits(n, g)

    mat = g.matrix()
    k = len(g.targets)
    if mat.shape != (1 << k, 1 << k):
        raise ArgumentError(
            f"gate {g.kind!r} expects {int(math.log2(mat.shape[0]))} targets, got {k}"
        )

    # Reshape so that only the touched qubits get their own (size-2) axis;
    # untouched runs of qubits stay fused, keeping views few-dimensional.
    special = sorted(set(g.targets) | set(g.controls), reverse=True)
    dims = []
    axis_of = {}
    prev = n
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
    target_axes = [axis_of[q] for q in g.targets]

    def view(combo, block=()):
        idx = list(base)
        for i, ax in enumerate(target_axes):
            idx[ax] = (combo >> (k - 1 - i)) & 1
        v = psi[tuple(idx)]
        return v[block] if block else v

    dim = 1 << k
    path, rows = _kernel_path(g.kind, mat)
    if path == "diag":
        for j in range(dim):
            d = mat[j, j]
            if d != 1:
                view(j)[...] *= d
        return state
    # A view spans the untouched runs dims[::2]: 2^(n - len(special)) amplitudes.
    fits = 1 << (n - len(special)) <= _DENSE_BLOCK
    for block in ((),) if fits else _blocks(dims[::2]):
        if path == "perm":
            moved = {}
            for src, dst in enumerate(rows):
                if dst != src:
                    moved[dst] = view(src, block).copy()
            for dst, data in moved.items():
                view(dst, block)[...] = data
        else:
            inputs = [view(j, block).copy() for j in range(dim)]
            for i in range(dim):
                acc = mat[i, 0] * inputs[0]
                for j in range(1, dim):
                    if mat[i, j] != 0:
                        acc += mat[i, j] * inputs[j]
                view(i, block)[...] = acc
    return state


# The most amplitudes apply_gate copies out of one view at once: 128 KiB per
# temporary, which stays in cache and is reused from the heap, where a whole
# view of a 22-qubit state would fault in 32 MiB of fresh pages.
_DENSE_BLOCK = 1 << 13


def _blocks(shape):
    """Index tuples that cut an array of this shape (powers of two) into
    blocks of at most _DENSE_BLOCK elements, in C order.

    Leading axes are taken one index at a time until the axes after one fit
    in a block; that axis is cut into equal chunks and the later ones are
    kept whole, so each block is one run of the array's C order.
    """
    inner = math.prod(shape)
    cuts = []
    for size in shape:
        inner //= size
        if inner <= _DENSE_BLOCK:
            step = _DENSE_BLOCK // inner
            cuts.append([slice(s, s + step) for s in range(0, size, step)])
            return itertools.product(*cuts)
        cuts.append(range(size))


def _check_gate_qubits(n, g: GateSpec):
    seen = set()
    for q in g.targets + g.controls:
        _check_index(n, q)
        if q in seen:
            raise ArgumentError(f"qubit {q} repeated among targets/controls")
        seen.add(q)
    if not g.targets:
        raise ArgumentError("gate needs at least one target")


# Gate kinds that map each basis state to one basis state, with their widths.
_PERMUTATION_TARGETS = {"x": 1, "cnot": 2, "swap": 2}
# Bit flips on qubit 63 would overflow the int64 index arrays.
_MAX_INDEX_QUBITS = 62


def permute_basis(indices, gates, num_qubits: int) -> np.ndarray:
    """Map basis indices through (possibly controlled) X/CNOT/SWAP gates.

    These gates send every basis state to one basis state, so a state with
    few nonzero amplitudes can be evolved by moving the indices of its
    support alone. Returns a new int64 array whose entry i is the image of
    indices[i]; raises ArgumentError for any other gate kind.
    """
    if not 1 <= num_qubits <= _MAX_INDEX_QUBITS:
        raise ArgumentError(
            f"basis indices cover 1 to {_MAX_INDEX_QUBITS} qubits, got {num_qubits}")
    idx = np.array(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >> num_qubits):
        raise ArgumentError(f"basis index out of range for {num_qubits} qubits")
    for g in gates:
        _check_gate_qubits(num_qubits, g)
        width = _PERMUTATION_TARGETS.get(g.kind)
        if width is None:
            raise ArgumentError(f"gate {g.kind!r} is not a basis permutation")
        if len(g.targets) != width:
            raise ArgumentError(
                f"gate {g.kind!r} expects {width} targets, got {len(g.targets)}")
        controls = dict(zip(g.controls, g.values()))
        if g.kind == "cnot":
            controls[g.targets[0]] = 1
        mask = sum(1 << q for q in controls)
        want = sum(v << q for q, v in controls.items())
        active = (idx & mask) == want
        if g.kind == "swap":
            a, b = g.targets
            active &= ((idx >> a) ^ (idx >> b)) & 1 == 1  # bits differ
            flip = (1 << a) | (1 << b)
        else:
            flip = 1 << g.targets[-1]
        idx[active] ^= flip
    return idx


def apply_basis_permutation(state: StateVector, gates) -> StateVector:
    """Apply X/CNOT/SWAP-family gates in place, moving only nonzero amplitudes.

    Equal to apply_gates bit for bit on these gates; it costs time in the
    size of the support rather than of the state. The state is untouched if
    any gate is rejected.
    """
    support = np.flatnonzero(state.amps != 0)
    images = permute_basis(support, gates, state.num_qubits)
    values = state.amps[support]
    state.amps[support] = 0.0
    state.amps[images] = values
    return state


def _is_permutation(mat) -> bool:
    return np.array_equal(mat, mat.astype(bool).astype(mat.dtype)) and \
        (mat.astype(bool).sum(axis=0) == 1).all() and \
        (mat.astype(bool).sum(axis=1) == 1).all()


def _is_diagonal(mat) -> bool:
    return not np.any(mat[~np.eye(mat.shape[0], dtype=bool)])


def _inspect(mat):
    """Kernel path of a matrix: ("perm", row of each column's 1), ("diag", None)
    or ("dense", None)."""
    if _is_permutation(mat):
        return "perm", tuple(int(np.argmax(np.abs(mat[:, j]))) for j in range(len(mat)))
    if _is_diagonal(mat):
        return "diag", None
    return "dense", None


# The constant-matrix kinds, inspected once. Nothing else is cached: a cache
# keyed on parameters would fill with every distinct angle of a `u` gate.
_FIXED_PATHS = {kind: _inspect(GateSpec(kind, ()).matrix())
                for kind in ("h", "x", "cnot", "swap")}


def _kernel_path(kind: str, mat):
    """The path apply_gate takes for a gate of this kind and matrix.

    The same as _inspect(mat), but without inspecting a `u`/`rk` matrix: a
    2x2 matrix whose off-diagonal entries are exactly 0 is diagonal, and the
    only permutation such a gate can equal is the identity (say U(0,0,0)),
    which the diagonal path leaves untouched just as the permutation path
    does. Any other `u`/`rk`, NaN entries included, takes the dense path.
    """
    fixed = _FIXED_PATHS.get(kind)
    if fixed is not None:
        return fixed
    if mat[0, 1] == 0 and mat[1, 0] == 0:
        return "diag", None
    return "dense", None


def apply_gates(state: StateVector, gates) -> StateVector:
    for g in gates:
        apply_gate(state, g)
    return state


def embed_low(small: StateVector, total_qubits: int, labels=None) -> StateVector:
    """Extend a state with |0...0> on new high qubits [small.num_qubits, total)."""
    if total_qubits < small.num_qubits:
        raise ArgumentError("cannot embed into fewer qubits")
    state = init_state(total_qubits, labels=labels)
    state.amps[: small.amps.size] = small.amps
    return state


def measure_qubit(state: StateVector, qubit: int, rng) -> tuple[int, StateVector]:
    """Born-rule measurement of one qubit; collapses and renormalizes in place."""
    p1 = state.probability(qubit, 1)
    outcome = 1 if rng.random() < p1 else 0
    _project(state, qubit, outcome, p1 if outcome else 1.0 - p1)
    return outcome, state


def postselect_qubit(state: StateVector, qubit: int, outcome: int) -> tuple[float, StateVector]:
    """Force a measurement outcome; returns its probability.

    Raises PostSelectionError when the branch has (numerically) zero weight.
    """
    if outcome not in (0, 1):
        raise ArgumentError("outcome must be 0 or 1")
    p = state.probability(qubit, outcome)
    if p < POSTSELECT_MIN_PROB:
        raise PostSelectionError(
            f"cannot post-select outcome {outcome} on qubit {qubit}: probability {p:.3e}",
            probability=p,
        )
    _project(state, qubit, outcome, p)
    return p, state


def _project(state, qubit, outcome, prob):
    if prob <= 0.0:
        raise PostSelectionError(
            f"projection on qubit {qubit}={outcome} has zero probability",
            probability=prob,
        )
    view = state.amps.reshape(-1, 2, 1 << qubit)
    view[:, 1 - outcome, :] = 0.0
    state.amps /= math.sqrt(prob)


def reset_qubit(state: StateVector, qubit: int, rng, value: int = 0) -> int:
    """Measure one qubit, then flip it to |value> if the outcome differs.

    Returns the measured outcome; entangled partners collapse with it.
    """
    outcome, _ = measure_qubit(state, qubit, rng)
    if outcome != value:
        apply_gate(state, gate("x", (qubit,)))
    return outcome


def set_qubit(state: StateVector, qubit: int, value: int, rng) -> StateVector:
    """Measure-and-discard reset of one qubit to |value> (collapses partners)."""
    reset_qubit(state, qubit, rng, value)
    return state


def reduced_purity(state: StateVector, subset) -> float:
    """Tr(rho_subset^2) of the reduced density operator on `subset`."""
    n = state.num_qubits
    items = list(subset)
    sub = sorted(set(items))
    if not sub:
        raise ArgumentError("subset must be nonempty")
    if len(sub) != len(items):
        raise ArgumentError("subset contains repeated qubits")
    if len(sub) >= n:
        raise ArgumentError("subset must be a proper subset of all qubits")
    for q in sub:
        _check_index(n, q)
    psi = state.amps.reshape((2,) * n)
    # C-order axis i holds qubit (n-1-i); bring the subset to the front.
    axes = [n - 1 - q for q in sub]
    psi = np.moveaxis(psi, axes, range(len(sub)))
    m = psi.reshape(1 << len(sub), -1)
    # Tr(rho_A^2) = Tr(rho_B^2): form the Gram matrix on the smaller side.
    if 2 * len(sub) > n:
        gram = m.conj().T @ m
    else:
        gram = m @ m.conj().T
    return float(np.sum(np.abs(gram) ** 2).real)


def state_fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 for two states over the same qubits."""
    if a.num_qubits != b.num_qubits or a.labels != b.labels:
        raise ArgumentError("states must have the same qubit count and labels")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def dump_state(state: StateVector, eps: float = 1e-12) -> list[str]:
    """Text dump: `index<TAB>bitstring<TAB>re<TAB>im`, MSB first, q[0] rightmost."""
    n = state.num_qubits
    lines = []
    for idx in np.flatnonzero(np.abs(state.amps) >= eps):
        a = state.amps[idx]
        bits = format(int(idx), f"0{n}b")
        lines.append(f"{int(idx)}\t{bits}\t{a.real:.12g}\t{a.imag:.12g}")
    return lines


def _check_index(n, q):
    if not 0 <= q < n:
        raise ArgumentError(f"qubit index {q} out of range for {n} qubits")
