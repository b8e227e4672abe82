"""Statevector kernel: gate application, measurement, purity diagnostics.

Conventions used across the package:
  - qubit index 0 is the least-significant bit of the computational basis
    index, so register element q[0] is the LSB of any integer interpretation;
  - gate matrices index their rows/columns with the *first* target qubit as
    the most significant bit (CNOT(control, target) is the usual 4x4 matrix);
  - a StateVector holds a flat complex128 array of length 2**num_qubits;
  - DEFAULT_MAX_QUBITS is the package's one qubit budget: init_state,
    embed_low, the interpreter's layout and the QRAM router layout check it.

States are not always one flat array. The interpreter holds a state as a
SupportState while that is the cheaper form (_support_pays: 16 qubits or
more, and a support that is small next to 2^n): the sorted indices and
values of its support, plus a small table of the signed zeros that the dense
kernel leaves in the other amplitudes. A circuit-backend `qld` forces a
22-qubit layout whose state has a handful of nonzero amplitudes, and the
support state pays for those alone. It is exact, not an approximation: every
operation feeds the same values through the same numpy operations as the
dense kernel (gates through one `_combine`, probabilities through numpy's
pairwise-sum tree), so the dense state it is turned into, when it outgrows
the rule (`held`) or at the end of a run, is the dense kernel's, byte for
byte. That exactness reproduces numpy's own rounding (its summation order,
its fused multiply-add complex loops), so it is checked by the tests for the
numpy release pyproject.toml requires, on the CPU they run on.
"""

from __future__ import annotations

import collections
import copy
import functools
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
        self.labels = _labels(self.num_qubits, self.labels)
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


def _labels(num_qubits, labels):
    labels = tuple(labels) if labels else tuple(f"q{i}" for i in range(num_qubits))
    if len(labels) != num_qubits:
        raise ArgumentError("one label per qubit required")
    return labels


def init_state(num_qubits: int, basis_index: int = 0, labels=None) -> StateVector:
    """Computational basis state |basis_index> on `num_qubits` qubits."""
    _check_basis(num_qubits, basis_index)
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[basis_index] = 1.0
    return StateVector(num_qubits, amps, tuple(labels) if labels else ())


def zero_state(num_qubits: int, labels=None):
    """|0...0> as the interpreter holds it: a SupportState if that is the
    cheaper form (see `held`), else a dense StateVector."""
    return held(SupportState.basis(num_qubits, 0, labels))


def held(state):
    """`state` in the form the interpreter keeps it: a SupportState that no
    longer pays for itself (_support_pays) is turned dense, for good; any
    other state is returned as it is."""
    if isinstance(state, SupportState) \
            and not _support_pays(state.num_qubits, len(state.index) + len(state.zeros)):
        return state.to_dense()
    return state


# What one SupportState operation costs, in amplitudes the dense kernel
# sweeps in the same time: about 64 per support or zero-table entry, plus a
# fixed 2^15 (gate, diagonal, permutation and probability timed on random
# supports of 1 to 2^18 entries at 14 to 22 qubits; x86-64, numpy 2.4).
_SUPPORT_ENTRY_COST = 64
_SUPPORT_FIXED_COST = 1 << 15


def _support_pays(num_qubits, entries):
    return _SUPPORT_ENTRY_COST * entries + _SUPPORT_FIXED_COST <= 1 << num_qubits


def _check_basis(num_qubits, basis_index):
    if num_qubits < 1:
        raise ArgumentError("need at least one qubit")
    if num_qubits > DEFAULT_MAX_QUBITS:
        raise ResourceError(
            f"{num_qubits} qubits exceeds the configured budget of {DEFAULT_MAX_QUBITS}")
    if not 0 <= basis_index < (1 << num_qubits):
        raise ArgumentError(
            f"basis index {basis_index} out of range for {num_qubits} qubits"
        )


def apply_gate(state: StateVector, g: GateSpec) -> StateVector:
    """Apply a (possibly controlled) gate in place; returns the same state.

    Works on strided views of the amplitude tensor, with fast paths for
    permutation matrices (X/CNOT/SWAP families) and diagonal matrices
    (phase gates), so no index arrays are ever materialized. Where the views
    lie depends on the gate's qubits alone, so it is planned once per
    structure (_plan); each call only builds the matrix and picks the path.

    The permutation and dense paths copy their inputs one block of at most
    _DENSE_BLOCK amplitudes per view at a time (see _blocks), so every
    temporary stays cache-sized whatever the state size; a view that fits in
    one block is processed whole. Each output amplitude gets the same
    element-wise arithmetic on the same contiguous copies as when the whole
    view is copied at once (m[i,0]*in_0, then += m[i,j]*in_j for each
    nonzero m[i,j]), so the result is the same bit for bit.

    A SupportState applies the gate to its support alone (SupportState).
    """
    if isinstance(state, SupportState):
        state._apply(g)
        return state
    mat, plan = _checked(state.num_qubits, g)
    psi = state.amps.reshape(plan.dims)
    views = plan.views
    path, rows = _kernel_path(g.kind, mat)
    if path == "diag":
        _combine(path, mat, [psi[v] if mat[j, j] != 1 else None for j, v in enumerate(views)])
        return state
    for block in ((),) if plan.fits else _blocks(plan.dims[::2]):
        if path == "perm":
            moved = {dst: psi[views[src]][block].copy()
                     for src, dst in enumerate(rows) if dst != src}
            for dst, data in moved.items():
                psi[views[dst]][block] = data
        else:
            outputs = _combine(path, mat, [psi[v][block].copy() for v in views])
            for v, out in zip(views, outputs):
                psi[v][block] = out
    return state


def _checked(n, g: GateSpec):
    """The gate's base matrix and plan, once its qubits and width are checked."""
    plan = _plan(n, g.targets, g.controls, g.control_values)
    mat = g.matrix()
    if mat.shape != (len(plan.views),) * 2:
        raise ArgumentError(
            f"gate {g.kind!r} expects {int(math.log2(mat.shape[0]))} targets, "
            f"got {len(g.targets)}")
    return mat, plan


# What apply_gate and SupportState need to know of a gate's qubits. dims: the
# amplitude tensor's shape, a size-2 axis per touched qubit and one fused axis
# per untouched run; views[j]: the index of the view where the targets read j
# and the controls their values; fits: a view (dims[::2]) fits in one block;
# mask, want: the controls' bits of a basis index and their values there;
# offsets[j]: the targets' bits where they read j.
_Plan = collections.namedtuple("_Plan", "dims views fits mask want offsets")


@functools.lru_cache(maxsize=4096)
def _plan(n, targets, controls, control_values) -> _Plan:
    """A gate's _Plan, once its qubits are checked. It is keyed on structure
    alone, never on params, so the angles of `u` gates cannot grow the cache;
    a bad gate raises on every call (lru_cache keeps no exception)."""
    seen = set()
    for q in targets + controls:
        _check_index(n, q)
        if q in seen:
            raise ArgumentError(f"qubit {q} repeated among targets/controls")
        seen.add(q)
    if not targets:
        raise ArgumentError("gate needs at least one target")
    values = control_values or (1,) * len(controls)
    dims, axis_of, prev = [], {}, n
    for b in sorted(set(targets) | set(controls), reverse=True):
        dims += [1 << (prev - b - 1), 2]
        axis_of[b] = len(dims) - 1
        prev = b
    dims.append(1 << prev)
    index = [slice(None)] * len(dims)
    for q, v in zip(controls, values):
        index[axis_of[q]] = v
    k = len(targets)
    views, offsets = [], []
    for j in range(1 << k):
        bits = [(q, j >> (k - 1 - i) & 1) for i, q in enumerate(targets)]
        for q, bit in bits:
            index[axis_of[q]] = bit
        views.append(tuple(index))
        offsets.append(sum(bit << q for q, bit in bits))
    return _Plan(tuple(dims), tuple(views), 1 << (n - len(axis_of)) <= _DENSE_BLOCK,
                 sum(1 << q for q in controls), sum(v << q for q, v in zip(controls, values)),
                 tuple(offsets))


def _combine(path, mat, inputs):
    """The element-wise arithmetic of a diagonal or dense gate.

    inputs[j] holds the amplitudes whose target qubits read j, aligned
    across j. A diagonal gate scales each inputs[j] in place by mat[j, j]
    and returns them (where mat[j, j] is 1, inputs[j] is not read and may
    be None); a dense gate returns fresh outputs
    mat[i,0]*in_0, then += mat[i,j]*in_j for each nonzero mat[i,j]. The
    dense kernel and SupportState both compute through here, so an amplitude
    gets the same operations on the same values, hence the same bits.
    """
    if path == "diag":
        for j, amps in enumerate(inputs):
            d = mat[j, j]
            if d != 1:
                amps *= d
        return inputs
    outputs = []
    for i in range(len(mat)):
        acc = mat[i, 0] * inputs[0]
        for j in range(1, len(mat)):
            if mat[i, j] != 0:
                acc += mat[i, j] * inputs[j]
        outputs.append(acc)
    return outputs


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
        plan = _plan(num_qubits, g.targets, g.controls, g.control_values)
        width = _PERMUTATION_TARGETS.get(g.kind)
        if width is None:
            raise ArgumentError(f"gate {g.kind!r} is not a basis permutation")
        if len(g.targets) != width:
            raise ArgumentError(
                f"gate {g.kind!r} expects {width} targets, got {len(g.targets)}")
        on = 1 << g.targets[0] if g.kind == "cnot" else 0  # the CNOT's control
        active = (idx & (plan.mask | on)) == plan.want | on
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
    if isinstance(state, SupportState):
        state._permute(gates)
        return state
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


# The constant-matrix kinds, inspected once. Apart from these, only a gate's
# structure is cached (_plan): a cache keyed on parameters would fill with
# every distinct angle of a `u` gate.
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
    return _measure(state, qubit, rng)[0], state


def _measure(state, qubit, rng) -> tuple[int, float, float]:
    """measure_qubit's work; returns the outcome, its probability and p1, the
    probability of outcome 1: the outcome is 1 exactly if the one draw
    `rng.random()` is below p1."""
    p1 = state.probability(qubit, 1)
    outcome = 1 if rng.random() < p1 else 0
    prob = p1 if outcome else 1.0 - p1
    _project(state, qubit, outcome, prob)
    return outcome, prob, p1


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
    if isinstance(state, SupportState):
        state._project(qubit, outcome, prob)
        return
    view = state.amps.reshape(-1, 2, 1 << qubit)
    view[:, 1 - outcome, :] = 0.0
    state.amps /= math.sqrt(prob)


def reset_qubit(state: StateVector, qubit: int, rng, value: int = 0) -> int:
    """Measure one qubit, then flip it to |value> if the outcome differs.

    Returns the measured outcome; entangled partners collapse with it.
    """
    return _reset(state, qubit, rng, value)[0]


def _reset(state, qubit, rng, value=0) -> tuple[int, float]:
    """reset_qubit's work; returns the outcome and its draw's p1 (see _measure)."""
    outcome, _, p1 = _measure(state, qubit, rng)
    if outcome != value:
        apply_gate(state, gate("x", (qubit,)))
    return outcome, p1


class SupportState:
    """A state held as its support: sorted int64 `index`, complex128 `values`.

    Every amplitude off the support is a signed zero. The dense kernel writes
    m*0 into amplitudes that stay zero, and the signs of those zeros show in
    `amps.tobytes()` and can print as `-0`, so they are kept too: off-support
    zeros depend only on the bits of qubits that gates have touched, and
    `zeros` holds them as a table keyed by the bits of `zero_qubits` (qubit
    zero_qubits[t] is bit t of the key). That table is itself a small dense
    state, and each gate is applied to it as well.

    apply_gate, apply_basis_permutation, measurement, post-selection and
    `probability` give the dense kernel's results bit for bit, at a cost in
    the size of the support and the table (see `held` for when the dense
    form is cheaper). A gate with a non-finite matrix entry is rejected
    with ArgumentError: the dense kernel would spread NaN to every
    amplitude.
    """

    def __init__(self, num_qubits: int, index, values, labels=()):
        """`index` must be sorted and free of repeats; every other amplitude is +0."""
        self.num_qubits = num_qubits
        self.labels = _labels(num_qubits, labels)
        self.index = np.array(index, dtype=np.int64)
        self.values = np.array(values, dtype=np.complex128)
        self.zero_qubits = ()
        self.zeros = np.zeros(1, dtype=np.complex128)

    @classmethod
    def basis(cls, num_qubits: int, basis_index: int = 0, labels=None) -> "SupportState":
        """Computational basis state |basis_index>, checked as init_state does."""
        _check_basis(num_qubits, basis_index)
        return cls(num_qubits, [basis_index], [1.0], labels)

    def copy(self) -> "SupportState":
        twin = copy.copy(self)
        twin.index, twin.values = self.index.copy(), self.values.copy()
        twin.zeros = self.zeros.copy()
        return twin

    def to_dense(self) -> StateVector:
        """The dense state, built from calloc'd zeros: the zero table's
        pattern is written only if it holds a -0, then the support."""
        amps = np.zeros(1 << self.num_qubits, dtype=np.complex128)
        if np.signbit(self.zeros.view(np.float64)).any():
            # The zeros repeat with the period of their highest qubit (1 for
            # a table keyed by no qubit): one period, widened to a kernel
            # block, is written, then copied on.
            period = max(1 << (max(self.zero_qubits, default=-1) + 1),
                         min(_DENSE_BLOCK, amps.size))
            dims, shape, prev = [], [], period.bit_length() - 1
            for q in reversed(self.zero_qubits):
                dims += [1 << (prev - q - 1), 2]
                shape += [1, 2]
                prev = q
            head = amps[:period]
            head.reshape(dims + [1 << prev])[...] = self.zeros.reshape(shape + [1])
            amps.reshape(-1, period)[1:] = head
        amps[self.index] = self.values
        return StateVector(self.num_qubits, amps, self.labels)

    def probability(self, qubit: int, value: int = 1) -> float:
        """StateVector.probability's value, bit for bit."""
        _check_index(self.num_qubits, qubit)
        chosen = (self.index >> qubit) & 1 == value
        index = self.index[chosen]
        low = (1 << qubit) - 1
        # the position of each amplitude in the dense kernel's selected half
        position = (index >> 1) & ~low | index & low
        return float(_pairwise_sum(position, np.abs(self.values[chosen]) ** 2,
                                   1 << (self.num_qubits - 1)))

    # -- operations, reached through apply_gate, apply_basis_permutation
    #    and _project -------------------------------------------------------

    def _apply(self, g: GateSpec):
        mat, plan = _checked(self.num_qubits, g)
        if not np.isfinite(mat).all():
            raise ArgumentError(f"gate {g.kind!r} has a non-finite matrix entry")
        path, _ = _kernel_path(g.kind, mat)
        index, values = self.index, self.values
        if path == "perm":
            self._set(permute_basis(index, [g], self.num_qubits), values)
        else:
            active = index & plan.mask == plan.want
            if path == "diag":
                # numpy multiplies a one-element array in place without a
                # fused multiply-add, so a part is padded to two elements
                # unless the dense kernel's views hold one amplitude too.
                spare = int(self.num_qubits > len(g.targets) + len(g.controls))
                combo = index & plan.offsets[-1]
                parts = [active & (combo == off) for off in plan.offsets]
                inputs = [np.append(values[p], np.zeros(spare, values.dtype)) for p in parts]
                for part, out in zip(parts, _combine(path, mat, inputs)):
                    values[part] = out[:len(out) - spare]
            else:
                # every group of 2^k amplitudes that meets the support
                bases = np.unique(index[active] & ~plan.offsets[-1])
                members = [bases | off for off in plan.offsets]
                outputs = _combine(path, mat, [self._read(m) for m in members])
                self._set(np.concatenate([index[~active]] + members),
                          np.concatenate([values[~active]] + outputs))
        self._widen(g.targets + g.controls)
        where = {q: t for t, q in enumerate(self.zero_qubits)}
        apply_gate(StateVector(len(where), self.zeros), GateSpec(
            g.kind, tuple(where[q] for q in g.targets), g.params,
            tuple(where[q] for q in g.controls), g.control_values))
        self._settle()

    def _permute(self, gates):
        """apply_basis_permutation: nonzero values move, +0 is left at their
        sources, and zeros elsewhere stay where they are."""
        nonzero = self.values != 0
        sources = self.index[nonzero]
        images = permute_basis(sources, gates, self.num_qubits)
        self._set(np.concatenate([self.index[~nonzero], sources, images]),
                  np.concatenate([self.values[~nonzero],
                                  np.zeros(len(sources), dtype=np.complex128),
                                  self.values[nonzero]]))
        self._settle()

    def _project(self, qubit, outcome, prob):
        self._widen((qubit,))
        t = self.zero_qubits.index(qubit)
        self.zeros.reshape(-1, 2, 1 << t)[:, 1 - outcome, :] = 0.0
        self.values[(self.index >> qubit) & 1 != outcome] = 0.0
        scale = math.sqrt(prob)
        self.zeros /= scale
        self.values /= scale
        self._settle()

    # -- bookkeeping --------------------------------------------------------

    def _zeros_at(self, index):
        key = np.zeros(len(index), dtype=np.int64)
        for t, q in enumerate(self.zero_qubits):
            key |= (index >> q & 1) << t
        return self.zeros[key]

    def _read(self, index):
        """Fresh array of the amplitudes at these basis indices."""
        out = self._zeros_at(index)
        if len(self.index):
            at = np.minimum(np.searchsorted(self.index, index), len(self.index) - 1)
            found = self.index[at] == index
            out[found] = self.values[at[found]]
        return out

    def _set(self, index, values):
        """Sort the entries by index; of repeated indices the last one wins."""
        order = np.argsort(index, kind="stable")
        index, values = index[order], values[order]
        last = np.append(index[1:] != index[:-1], True)
        self.index, self.values = index[last], values[last]

    def _widen(self, qubits):
        """Key the zero table by these qubits too."""
        wider = tuple(sorted(set(self.zero_qubits).union(qubits)))
        if wider == self.zero_qubits:
            return
        keys = np.arange(1 << len(wider))
        old = np.zeros_like(keys)
        for t, q in enumerate(self.zero_qubits):
            old |= (keys >> wider.index(q) & 1) << t
        self.zeros = self.zeros[old]
        self.zero_qubits = wider

    def _settle(self):
        """Drop table qubits the zeros do not depend on and entries that equal
        their zero."""
        for t in reversed(range(len(self.zero_qubits))):
            halves = self.zeros.reshape(-1, 2, 1 << t)
            if _same_bits(halves[:, 0, :].ravel(), halves[:, 1, :].ravel()).all():
                self.zeros = halves[:, 0, :].ravel()
                self.zero_qubits = self.zero_qubits[:t] + self.zero_qubits[t + 1:]
        keep = ~_same_bits(self.values, self._zeros_at(self.index))
        self.index, self.values = self.index[keep], self.values[keep]


def _same_bits(a, b):
    """Entry by entry: do complex arrays a and b hold the same bits (-0 != +0)?"""
    a = np.ascontiguousarray(a).view(np.int64).reshape(-1, 2)
    b = np.ascontiguousarray(b).view(np.int64).reshape(-1, 2)
    return (a == b).all(axis=1)


def _pairwise_sum(position, w, n):
    """np.sum of an n-element array (n a power of two) that is +0 except for
    the non-negative w at the sorted positions, with the same rounding.

    numpy sums up to 128 elements in eight interleaved lanes, each in order,
    then adds the lanes as a binary tree; a longer array it halves
    recursively, and fewer than 8 elements it adds in order. So for n a
    power of two the sum is one binary tree over the key
    (p >> 7) << 3 | p & 7 (0 below 8 elements) whose leaves are in-order lane
    sums. Adding +0 leaves a non-negative sum as it is, so only the given
    leaves are visited. Summing in index order instead differs in the last
    bits.
    """
    if not len(position):
        return 0.0
    key = position >> 7 << 3 | position & 7 if n >= 8 else np.zeros_like(position)
    order = np.argsort(key, kind="stable")
    key, w = key[order], w[order]
    first = np.flatnonzero(np.append(True, key[1:] != key[:-1]))
    length = np.diff(np.append(first, len(key)))
    sums = w[first]
    for step in range(1, length.max()):
        more = length > step
        sums[more] += w[first[more] + step]
    key = key[first]
    while len(key) > 1:
        key = key >> 1
        left = np.flatnonzero(key[1:] == key[:-1])
        sums[left] += sums[left + 1]
        keep = np.ones(len(key), dtype=bool)
        keep[left + 1] = False
        key, sums = key[keep], sums[keep]
    return sums[0]


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
