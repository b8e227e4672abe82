"""Bucket-brigade QRAM with two execution backends.

The functional backend applies each read/write mode's defining transformation
directly: for every address branch j, the bus couples to memory cell j under
an address-pattern control. The circuit backend emits an explicit router-tree
gate sequence (quantum switches + per-depth channel wires) whose net effect
must match the functional backend and restore every ancilla to |0>.

Every router-tree gate is a (controlled) X, CNOT or SWAP, so the program is a
classical reversible circuit: `check_mode` and the interpreter's circuit
`qld` run it on the basis indices of the input's support
(`statevec.permute_basis`) rather than on the dense 2^n-amplitude state.
`check_mode` maps the whole data block through each (addr_len, mode) program
once (`_router_images`, cached) and indexes that map with its support.
`run_circuit_mode` applies the program gate by gate to the dense state with
`statevec.apply_gates` and stays as the reference the tests compare against.

`check_mode`'s generic address circuit is re-rolled until every |c_j|^2
clears a floor. The re-rolls are drawn and screened in batches, their
minima in closed form; a minimum within a relative 1e-9 of the floor is
decided by the exact gate-by-gate probe, and the RNG is rewound so that it
ends where one-at-a-time draws would leave it.

`oracle_gates` is the one builder of a classical-data oracle query (the
address-controlled bus flips): `oracle_query`, the interpreter's functional
`qld` and the classical write-mode inputs all take their gates from it.

Address registers, classical data indices, and memory cell numbering all use
the package-wide little-endian convention (qubit/bit 0 is least significant).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from . import statevec as sv
from .errors import ArgumentError, ConfigError, ResourceError, StateError

MAX_CIRCUIT_ADDR_BITS = 3


class Direction(enum.Enum):
    READ = "read"
    WRITE = "write"


class DataKind(enum.Enum):
    CLASSICAL = "classical"
    QUANTUM = "quantum"


class Coupling(enum.Enum):
    CNOT = "cnot"
    SWAP = "swap"


@dataclass(frozen=True)
class QramMode:
    direction: Direction
    data_kind: DataKind
    coupling: Coupling

    @property
    def name(self) -> str:
        return f"{self.direction.value}-{self.data_kind.value}-{self.coupling.value}"

    @classmethod
    def parse(cls, text: str) -> "QramMode":
        try:
            d, k, c = text.strip().lower().split("-")
            return cls(Direction(d), DataKind(k), Coupling(c))
        except ValueError:
            raise ArgumentError(
                f"bad mode {text!r}; expected e.g. 'read-classical-cnot'"
            ) from None


ALL_MODES = tuple(
    QramMode(d, k, c) for d in Direction for k in DataKind for c in Coupling
)

# Entanglement structure of the output state on generic inputs, one pattern
# per mode: which subsystems end up entangled together.
PATTERN_ADDR_BUS = "addr, b"
PATTERN_ALL = "all"
PATTERN_ADDR_MEM = "addr, QMC"

MODE_PATTERNS = {
    "read-classical-cnot": PATTERN_ADDR_BUS,
    "read-classical-swap": PATTERN_ALL,
    "read-quantum-cnot": PATTERN_ALL,
    "read-quantum-swap": PATTERN_ALL,
    "write-classical-cnot": PATTERN_ALL,
    "write-classical-swap": PATTERN_ADDR_MEM,
    "write-quantum-cnot": PATTERN_ALL,
    "write-quantum-swap": PATTERN_ADDR_MEM,
}


@dataclass
class QramDevice:
    """QRAM descriptor: address width, word length, loaded data, memory qubits."""

    addr_len: int
    word_len: int = 1
    classical_data: list[int] | None = None
    memory_qubits: tuple[int, ...] = ()

    def __post_init__(self):
        if self.addr_len < 1:
            raise ArgumentError("addr_len must be >= 1")
        if self.word_len < 1:
            raise ArgumentError("word_len must be >= 1")
        self.memory_qubits = tuple(self.memory_qubits)
        if self.memory_qubits and len(self.memory_qubits) != self.num_cells:
            raise ArgumentError(
                f"materialized memory needs {self.num_cells} qubits"
            )

    @property
    def num_addresses(self) -> int:
        return 1 << self.addr_len

    @property
    def num_cells(self) -> int:
        return self.num_addresses * self.word_len


def qinit_load(device: QramDevice, x, state: sv.StateVector | None = None) -> QramDevice:
    """Load classical data; with materialized memory, also set the cells to |x>.

    Cells are assumed reset (|0>) when a state is given.
    """
    bits = [int(b) for b in x]
    if any(b not in (0, 1) for b in bits):
        raise ArgumentError("classical data must be bits")
    if len(bits) != device.num_cells:
        raise ArgumentError(
            f"data length {len(bits)} != expected {device.num_cells} "
            f"(2^{device.addr_len} x {device.word_len})"
        )
    device.classical_data = bits
    if state is not None and device.memory_qubits:
        sv.apply_basis_permutation(state, qinit_gates(device))
    return device


def qinit_gates(device: QramDevice) -> list[sv.GateSpec]:
    """The X flips that take reset materialized cells to the loaded data."""
    return [sv.gate("x", (q,))
            for q, b in zip(device.memory_qubits, device.classical_data) if b]


def _check_disjoint(*groups):
    seen = set()
    for g in groups:
        for q in g:
            if q in seen:
                raise ArgumentError(f"qubit {q} used by more than one register")
            seen.add(q)


def _addr_values(j: int, n: int) -> tuple[int, ...]:
    return tuple((j >> i) & 1 for i in range(n))


def _query_registers(device: QramDevice, addr_qubits, bus_qubits):
    """The address and bus qubits as tuples, checked against the device."""
    addr, bus = tuple(addr_qubits), tuple(bus_qubits)
    if len(addr) != device.addr_len or len(bus) != device.word_len:
        raise ArgumentError(
            f"need {device.addr_len} address and {device.word_len} bus qubits"
        )
    return addr, bus


def oracle_gates(bits, addr, bus):
    """The classically controlled bus flips of one oracle query, in order.

    For each address j (little-endian over `addr`) and bus bit t, an X on
    bus[t] controlled on addr == j whenever bits[j * len(bus) + t] is set.
    """
    addr, bus = tuple(addr), tuple(bus)
    w = len(bus)
    for j in range(1 << len(addr)):
        values = _addr_values(j, len(addr))
        for t in range(w):
            if bits[j * w + t]:
                yield sv.gate("x", (bus[t],), controls=addr, control_values=values)


def oracle_query(device: QramDevice, state: sv.StateVector,
                 addr_qubits, bus_qubits) -> sv.StateVector:
    """Coherent data lookup: sum_j c_j|j>|0>  ->  sum_j c_j|j>|x_j>.

    Realized as classically controlled bit flips on the bus, so no memory
    qubits are ever materialized; amplitudes c_j are untouched.
    """
    if device.classical_data is None:
        raise StateError("no classical data loaded; call qinit_load first")
    addr, bus = _query_registers(device, addr_qubits, bus_qubits)
    _check_disjoint(addr, bus)
    return sv.apply_gates(state, oracle_gates(device.classical_data, addr, bus))


def _coupling_gate(mode: QramMode, wire: int, cell: int, controls=(), values=()):
    if mode.coupling is Coupling.SWAP:
        return sv.gate("swap", (wire, cell), controls=controls, control_values=values)
    if mode.direction is Direction.READ:
        return sv.gate("cnot", (cell, wire), controls=controls, control_values=values)
    return sv.gate("cnot", (wire, cell), controls=controls, control_values=values)


def apply_mode(device: QramDevice, state: sv.StateVector, mode: QramMode,
               addr_qubits, bus_qubits) -> sv.StateVector:
    """Functional backend: per address branch j, couple bus and cell j.

    Cells outside the addressed support are never touched, so the mode
    equations' factorization over unaddressed cells holds exactly.
    """
    addr, bus = _query_registers(device, addr_qubits, bus_qubits)
    if mode.data_kind is DataKind.CLASSICAL and mode.direction is Direction.READ \
            and device.classical_data is None:
        raise StateError("classical read without loaded data; call qinit_load")
    if not device.memory_qubits:
        if mode.name == "read-classical-cnot":
            return oracle_query(device, state, addr, bus)
        raise ConfigError(
            f"mode {mode.name} needs materialized memory qubits"
        )
    _check_disjoint(addr, bus, device.memory_qubits)
    n, w = device.addr_len, device.word_len
    for j in range(device.num_addresses):
        values = _addr_values(j, n)
        for t in range(w):
            cell = device.memory_qubits[j * w + t]
            sv.apply_gate(state, _coupling_gate(mode, bus[t], cell, addr, values))
    return state


@dataclass(frozen=True)
class CircuitLayout:
    """Qubit assignment for the router-tree backend.

    Routers are stored level-major: level l occupies slots [2^l - 1, 2^(l+1) - 1).
    One channel wire per tree depth carries payloads downward.
    """

    addr: tuple[int, ...]
    bus: tuple[int, ...]
    routers: tuple[int, ...]
    channels: tuple[int, ...]
    memory: tuple[int, ...]

    def router(self, level: int, pos: int) -> int:
        return self.routers[(1 << level) - 1 + pos]

    @property
    def ancillas(self) -> tuple[int, ...]:
        return self.routers + self.channels

    @property
    def data_qubits(self) -> int:
        return len(self.addr) + len(self.bus) + len(self.memory)

    @property
    def total_qubits(self) -> int:
        return self.data_qubits + len(self.routers) + len(self.channels)


def circuit_layout(addr_len: int, word_len: int = 1) -> CircuitLayout:
    """Sequential layout: addr, bus, memory low; routers and channels high.

    Keeping the ancillas on the high qubits means an all-zero ancilla
    register corresponds to the first 2^(addr+bus+memory) amplitudes.
    """
    n, w = addr_len, word_len
    cursor = 0

    def take(k):
        nonlocal cursor
        block = tuple(range(cursor, cursor + k))
        cursor += k
        return block

    addr = take(n)
    bus = take(w)
    memory = take((1 << n) * w)
    routers = take((1 << n) - 1)
    channels = take(n)
    return CircuitLayout(addr=addr, bus=bus, routers=routers,
                         channels=channels, memory=memory)


def _path_controls(layout: CircuitLayout, depth: int, pos: int):
    """Routers along the path to node (depth, pos) with their expected bits.

    Off-path routers hold |0> and can never satisfy the full pattern: the
    first on-path router whose bit differs already vetoes the match.
    """
    controls = tuple(layout.router(d, pos >> (depth - d)) for d in range(depth))
    values = tuple((pos >> (depth - 1 - d)) & 1 for d in range(depth))
    return controls, values


def build_router_program(device: QramDevice, mode: QramMode,
                         layout: CircuitLayout | None = None) -> list[sv.GateSpec]:
    """Gate sequence for one query through the router tree.

    Phases: (a) load address bits into router levels, (b) route each bus
    qubit to the leaves and apply the mode's coupling, (c) route back,
    (d) unload the address bits, restoring all routers and channels to |0>.
    """
    n, w = device.addr_len, device.word_len
    if n > MAX_CIRCUIT_ADDR_BITS:
        raise ResourceError(
            f"circuit backend supports addr_len <= {MAX_CIRCUIT_ADDR_BITS}, got {n}"
        )
    if layout is None:
        layout = circuit_layout(n, w)
    if layout.total_qubits > sv.DEFAULT_MAX_QUBITS:
        raise ResourceError(f"layout needs {layout.total_qubits} qubits, "
                            f"budget is {sv.DEFAULT_MAX_QUBITS}")

    load = []
    for level in range(n):
        src = layout.addr[n - 1 - level]  # root switches on the MSB
        if level == 0:
            load.append(sv.gate("swap", (src, layout.router(0, 0))))
            continue
        load.append(sv.gate("swap", (src, layout.channels[0])))
        for d in range(level - 1):
            load.append(sv.gate("swap", (layout.channels[d], layout.channels[d + 1])))
        for pos in range(1 << level):
            controls, values = _path_controls(layout, level, pos)
            load.append(
                sv.gate("swap", (layout.channels[level - 1], layout.router(level, pos)),
                        controls=controls, control_values=values)
            )

    prog = list(load)
    for t in range(w):
        busq = layout.bus[t]
        wire = layout.channels[n - 1]
        descent = [sv.gate("swap", (busq, layout.channels[0]))]
        descent += [
            sv.gate("swap", (layout.channels[d], layout.channels[d + 1]))
            for d in range(n - 1)
        ]
        prog += descent
        for pos in range(1 << n):
            controls, values = _path_controls(layout, n, pos)
            cell = layout.memory[pos * w + t]
            prog.append(_coupling_gate(mode, wire, cell, controls, values))
        prog += list(reversed(descent))
    # every load gate is self-inverse, so the reversed list undoes the load
    prog += list(reversed(load))
    return prog


def run_circuit_mode(device: QramDevice, state: sv.StateVector, mode: QramMode,
                     layout: CircuitLayout) -> sv.StateVector:
    """Dense reference: the router program applied gate by gate to `state`."""
    return sv.apply_gates(state, build_router_program(device, mode, layout))


@dataclass
class EntanglementProfile:
    """Reduced purities of the named partitions plus the matched pattern."""

    purities: dict
    pattern: str

    PRODUCT_TOL = 1e-6
    ENTANGLE_TOL = 1e-3


def classify_purities(purities: dict,
                      product_tol: float = EntanglementProfile.PRODUCT_TOL,
                      entangle_tol: float = EntanglementProfile.ENTANGLE_TOL) -> str:
    """Map purities to one of the three generic patterns, else 'degenerate'.

    The classifier reports; it never asserts. Degenerate inputs (constant
    data, basis-state addresses) legitimately produce extra product structure.
    """
    def product(key):
        return purities[key] >= 1 - product_tol

    def entangled(key):
        return purities[key] <= 1 - entangle_tol

    if product("memory") and product("addr+bus") and entangled("addr") and entangled("bus"):
        return PATTERN_ADDR_BUS
    if product("bus") and product("addr+memory") and entangled("addr") and entangled("memory"):
        return PATTERN_ADDR_MEM
    if entangled("addr") and entangled("bus") and entangled("memory"):
        return PATTERN_ALL
    return "degenerate"


def entanglement_profile(state: sv.StateVector, device: QramDevice,
                         addr_qubits, bus_qubits) -> EntanglementProfile:
    """Purities of {addr, bus, memory, addr+bus, addr+memory} and the pattern."""
    if not device.memory_qubits:
        raise ConfigError("profile needs materialized memory qubits")
    addr = tuple(addr_qubits)
    bus = tuple(bus_qubits)
    mem = device.memory_qubits
    purities = {
        "addr": sv.reduced_purity(state, addr),
        "bus": sv.reduced_purity(state, bus),
        "memory": sv.reduced_purity(state, mem),
        "addr+bus": sv.reduced_purity(state, addr + bus),
        "addr+memory": sv.reduced_purity(state, addr + mem),
    }
    return EntanglementProfile(purities, classify_purities(purities))


# ---------------------------------------------------------------------------
# Randomized instance harness, shared by the test suite and `qmem qram-check`.
#
# The entanglement patterns hold on *generic* inputs, so the generators
# enforce genericity explicitly: address amplitudes bounded away from zero,
# single-qubit payload states pairwise distinguishable and not too close to
# |0> or |1>. Degenerate draws are re-rolled (seeded, hence deterministic).

_MAX_REROLLS = 500
_SCREEN_BATCH = 16  # address candidates drawn and screened per numpy call
_PROBE_MARGIN = 1e-9  # screened minima this close to the floor get the exact probe
_OVERLAP_CAP = 0.85  # max |<a|b>|^2 between payload states (and vs |0>,|1>)


def _u_ket(params):
    return sv.u_matrix(*params)[:, 0]


def _generic_single_qubit_params(rng, count):
    """Angle triples whose states are pairwise distinguishable.

    Drawn one at a time, re-rolling a draw that comes too close to an
    already-accepted state or to the poles |0>, |1>.
    """
    params = []
    kets = [np.array([1, 0]), np.array([0, 1])]
    for _ in range(count):
        for _ in range(_MAX_REROLLS):
            p = (rng.uniform(0.7, np.pi - 0.7), rng.uniform(0, 2 * np.pi),
                 rng.uniform(0, 2 * np.pi))
            ket = _u_ket(p)
            if all(abs(np.vdot(ket, other)) ** 2 <= _OVERLAP_CAP for other in kets):
                params.append(p)
                kets.append(ket)
                break
        else:
            raise RuntimeError("could not draw a generic payload set")
    return params


def _generic_address_circuit(rng, qubits):
    """Random circuit on the address register with all |c_j|^2 bounded below.

    A candidate is a U layer, a CNOT chain and a second U layer, with angles
    drawn per gate; the first candidate whose smallest |c_j|^2 reaches
    floor = 1/(4 * 2^n) is kept, within _MAX_REROLLS candidates. The
    candidates are drawn and screened _SCREEN_BATCH at a time
    (`_address_mins`, in closed form); one whose screened minimum lies within
    a relative _PROBE_MARGIN of the floor is decided by `_probe_min`, the
    exact gate-by-gate run. The caller's RNG is then rewound and advanced
    over exactly the candidates up to the kept one, so it ends where drawing
    one candidate at a time would leave it.
    """
    n = len(qubits)
    floor = 0.25 / (1 << n)
    start = rng.bit_generator.state
    drawn = 0
    while drawn < _MAX_REROLLS:
        batch = _draw_address_angles(rng, n, min(_SCREEN_BATCH, _MAX_REROLLS - drawn))
        mins = _address_mins(batch)
        for i in np.flatnonzero(mins >= floor * (1 - _PROBE_MARGIN)):
            gates = _address_gates(qubits, batch[i])
            if mins[i] >= floor * (1 + _PROBE_MARGIN) or _probe_min(gates, qubits) >= floor:
                rng.bit_generator.state = start
                _draw_address_angles(rng, n, drawn + i + 1)
                return gates
        drawn += len(batch)
    raise RuntimeError("could not draw a generic address state")


def _draw_address_angles(rng, n, count):
    """`count` candidates' U angles, (count, 2n, 3): the doubles, in order,
    that per-gate draws of three angles would give."""
    return rng.uniform(0.3, np.pi - 0.3, (count, 2 * n, 3))


def _address_gates(qubits, angles):
    """U on each qubit, a CNOT chain, U on each qubit again: one candidate."""
    n = len(qubits)
    return ([sv.gate("u", (q,), tuple(p)) for q, p in zip(qubits, angles[:n])]
            + [sv.gate("cnot", (a, b)) for a, b in zip(qubits, qubits[1:])]
            + [sv.gate("u", (q,), tuple(p)) for q, p in zip(qubits, angles[n:])])


def _probe_min(gates, qubits):
    """Smallest |c_j|^2 of the address state, by the gates run one at a time."""
    probe = sv.init_state(len(qubits))
    sv.apply_gates(probe, [sv.GateSpec(g.kind, tuple(qubits.index(t) for t in g.targets),
                                       g.params) for g in gates])
    return np.min(np.abs(probe.amps) ** 2)


def _address_mins(angles):
    """Smallest |c_j|^2 of each candidate's address state, (K,) from (K, 2n, 3).

    The first U layer on |0...0> is a product of the kets U[:, 0]; the CNOT
    chain only moves amplitudes; the second layer acts qubit by qubit.
    """
    k, n = angles.shape[0], angles.shape[1] // 2
    half = angles[..., 0] / 2
    c, s = np.cos(half), np.sin(half)
    e_phi, e_lam = np.exp(1j * angles[..., 1]), np.exp(1j * angles[..., 2])
    u = np.array([[c, -e_lam * s], [e_phi * s, e_phi * e_lam * c]])  # (2, 2, K, 2n)
    amps = u[:, 0, :, 0].T
    for q in range(1, n):  # qubit q becomes bit q of the index
        amps = (u[:, 0, :, q].T[:, :, None] * amps[:, None, :]).reshape(k, -1)
    chained = np.empty_like(amps)
    chained[:, _cnot_chain_images(n)] = amps
    for q in range(n):
        view = chained.reshape(k, 1 << (n - 1 - q), 2, 1 << q)
        chained = np.einsum("abk,kxby->kxay", u[:, :, :, n + q], view).reshape(k, -1)
    return np.min(np.abs(chained) ** 2, axis=1)


@functools.lru_cache(maxsize=None)
def _cnot_chain_images(n):
    """Image of each basis index of n qubits under CNOT(0,1), ..., CNOT(n-2,n-1)."""
    images = sv.permute_basis(np.arange(1 << n),
                              [sv.gate("cnot", (q, q + 1)) for q in range(n - 1)], n)
    images.setflags(write=False)
    return images


def _random_bits(rng, count):
    """Random non-constant bit vector (generic classical data)."""
    while True:
        bits = [int(b) for b in rng.integers(0, 2, count)]
        if 0 < sum(bits) < count:
            return bits


def prepare_mode_input(device: QramDevice, mode: QramMode, layout, rng,
                       state: sv.StateVector | None = None) -> sv.StateVector:
    """Generic random input state for one mode on the given layout.

    Read modes get generic addresses plus loaded memory (basis data for
    classical, distinguishable product cells for quantum); write modes start
    from reset memory with the payload on the bus, address-correlated so the
    generic entanglement patterns are exercised.
    """
    n, w = device.addr_len, device.word_len
    if state is None:
        state = sv.init_state(layout.total_qubits)
    sv.apply_gates(state, _generic_address_circuit(rng, list(layout.addr)))

    if mode.direction is Direction.READ:
        if mode.data_kind is DataKind.CLASSICAL:
            qinit_load(device, _random_bits(rng, device.num_cells), state)
        else:
            for q, params in zip(device.memory_qubits,
                                 _generic_single_qubit_params(rng, device.num_cells)):
                sv.apply_gate(state, sv.gate("u", (q,), params))
        return state

    # write modes: memory stays reset, the bus carries the payload
    if mode.data_kind is DataKind.CLASSICAL:
        bits = _random_bits(rng, device.num_cells)
        sv.apply_gates(state, oracle_gates(bits, layout.addr, layout.bus))
    else:
        # per-branch bus states, pairwise distinguishable
        for t in range(w):
            for j, params in zip(range(device.num_addresses),
                                 _generic_single_qubit_params(rng, device.num_addresses)):
                sv.apply_gate(state, sv.gate("u", (layout.bus[t],), params,
                                             controls=layout.addr,
                                             control_values=_addr_values(j, n)))
    return state


@dataclass
class ModeCheckResult:
    addr_len: int
    mode: str
    seed: int
    fidelity: float
    ancilla_zero_prob: float
    ancilla_purity: float  # exact on small layouts, else the p^2 lower bound
    pattern: str
    expected_pattern: str
    passed: bool

    def report_line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (f"{self.addr_len}\t{self.mode}\t{self.seed}\t{self.fidelity:.12f}"
                f"\t{self.pattern}\t{self.expected_pattern}\t{flag}")


def check_mode(addr_len: int, mode: QramMode, seed: int,
               fidelity_tol: float = 1e-9) -> ModeCheckResult:
    """Cross-check circuit vs functional backend on one random instance.

    The input is prepared on the data qubits only (addr+bus+memory, the low
    block of the layout), the functional reference evolves there, and the
    circuit backend runs on the full layout with ancillas in |0>. The router
    program only permutes basis states: the image of every data-block index
    is built once per (addr_len, mode) (`_router_images`) and the input's
    support is looked up in it. The images that land in the low block (all
    ancillas |0>) are scattered into one vector, and no full-layout state is
    built except for the exact ancilla purity on layouts of at most 14 qubits.
    The input's address circuit comes from `_generic_address_circuit`, which
    screens its re-rolls in batches and leaves the seed's RNG stream as a
    one-at-a-time draw would.
    The final fidelity is <circuit | reference x 0_ancilla>; the weight of
    the all-zero ancilla configuration doubles as a purity lower bound
    (p^2 <= Tr rho^2).
    """
    layout, device, small, reference = _mode_instance(addr_len, 1, mode, seed)
    profile = entanglement_profile(reference, device, layout.addr, layout.bus)

    support = np.flatnonzero(small.amps != 0)
    images = _router_images(addr_len, mode)[support]
    in_low = images < small.amps.size
    low = np.zeros_like(small.amps)
    low[images[in_low]] = small.amps[support[in_low]]
    fidelity = float(abs(np.vdot(low, reference.amps)) ** 2)
    p_zero = float(np.sum(np.abs(low) ** 2))
    if layout.total_qubits <= 14:
        big = np.zeros(1 << layout.total_qubits, dtype=np.complex128)
        big[images] = small.amps[support]
        purity = sv.reduced_purity(sv.StateVector(layout.total_qubits, big),
                                   layout.ancillas)
    else:
        purity = p_zero ** 2  # Tr(rho^2) >= <0|rho|0>^2

    expected = MODE_PATTERNS[mode.name]
    passed = fidelity >= 1 - fidelity_tol and purity >= 1 - fidelity_tol \
        and profile.pattern == expected
    return ModeCheckResult(addr_len, mode.name, seed, fidelity, p_zero, purity,
                           profile.pattern, expected, passed)


@functools.lru_cache(maxsize=None)
def _router_images(addr_len: int, mode: QramMode) -> np.ndarray:
    """Image of every data-block basis index (ancillas |0>) under the router
    program of one mode, on the full word_len = 1 layout; read-only, and
    built once per (addr_len, mode)."""
    layout = circuit_layout(addr_len)
    device = QramDevice(addr_len=addr_len, memory_qubits=layout.memory)
    program = build_router_program(device, mode, layout)
    images = sv.permute_basis(np.arange(1 << layout.data_qubits), program,
                              layout.total_qubits)
    images.setflags(write=False)
    return images


def profile_mode(addr_len: int, mode: QramMode, seed: int,
                 word_len: int = 1) -> EntanglementProfile:
    """Entanglement profile of one mode on a lean random instance
    (address + bus + materialized memory only, no routing ancillas)."""
    layout, device, _, state = _mode_instance(addr_len, word_len, mode, seed)
    return entanglement_profile(state, device, layout.addr, layout.bus)


def _mode_instance(addr_len, word_len, mode, seed):
    """One seeded generic instance of a mode on the data qubits (address, bus,
    memory) of the router layout: (layout, device, input, functional output)."""
    layout = circuit_layout(addr_len, word_len)
    device = QramDevice(addr_len=addr_len, word_len=word_len,
                        memory_qubits=layout.memory)
    rng = np.random.default_rng(seed)
    small = prepare_mode_input(device, mode, layout, rng,
                               sv.init_state(layout.data_qubits))
    reference = small.copy()
    apply_mode(device, reference, mode, layout.addr, layout.bus)
    return layout, device, small, reference
