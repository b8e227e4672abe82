"""Quantum memory device models: memory cells, RAQM, FIFO buffer, cache admission.

All devices operate on qubits inside a shared StateVector. Reads and writes
are SWAP gates between a bus qubit and a cell qubit; the read/write
distinction is classical bookkeeping (cell_status), not a different unitary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import statevec as sv
from .errors import AddressError, ArgumentError, PolicyError

RESET = "reset"
OCCUPIED = "occupied"


@dataclass
class RaqmTiming:
    """Optional timing parameters used by the interpreter's timeline report."""

    t_addr: float = 0.0
    t_rw_qmc: float = 0.0
    t_storage: float | None = None

    @property
    def t_rw(self) -> float:
        return self.t_addr + self.t_rw_qmc


@dataclass
class RaqmDevice:
    """Array of single-qubit memory cells with classical addressing.

    store_policy controls what a store to an occupied cell does:
    'error' fails the program, 'swap' performs the SWAP anyway and the bus
    receives the old contents.
    """

    cell_qubits: tuple[int, ...]
    cell_status: list[str] = field(default_factory=list)
    timing: RaqmTiming | None = None
    store_policy: str = "error"

    def __post_init__(self):
        self.cell_qubits = tuple(self.cell_qubits)
        if not self.cell_status:
            self.cell_status = [RESET] * len(self.cell_qubits)
        if len(self.cell_status) != len(self.cell_qubits):
            raise ArgumentError("one status flag per cell required")
        if self.store_policy not in ("error", "swap"):
            raise ArgumentError(f"unknown store policy {self.store_policy!r}")

    @property
    def capacity(self) -> int:
        return len(self.cell_qubits)

    def check_addr(self, addr: int):
        if not 0 <= addr < self.capacity:
            raise AddressError(
                f"address {addr} out of range for {self.capacity}-cell memory"
            )

    def check_store(self, addr: int):
        """check_addr, then the store policy: under 'error' the cell must be
        free."""
        self.check_addr(addr)
        if self.cell_status[addr] == OCCUPIED and self.store_policy == "error":
            raise PolicyError(
                f"store to occupied cell {addr} (policy 'error'; use 'swap' to allow reuse)"
            )


def qmc_swap(state: sv.StateVector, bus: int, cell: int) -> sv.StateVector:
    """SWAP bus and cell; any entanglement with third parties moves with it."""
    if bus == cell:
        raise ArgumentError("bus and cell must be distinct qubits")
    return sv.apply_gate(state, sv.gate("swap", (bus, cell)))


def raqm_store(device: RaqmDevice, state: sv.StateVector, addr: int, bus: int) -> sv.StateVector:
    device.check_store(addr)
    qmc_swap(state, bus, device.cell_qubits[addr])
    device.cell_status[addr] = OCCUPIED
    return state


def raqm_load(device: RaqmDevice, state: sv.StateVector, addr: int, bus: int) -> sv.StateVector:
    device.check_addr(addr)
    qmc_swap(state, bus, device.cell_qubits[addr])
    device.cell_status[addr] = RESET
    return state


def reset_addresses(device: RaqmDevice, addr: int | None):
    """The cells a reset covers: every cell for None, else the checked `addr`."""
    if addr is None:
        return range(device.capacity)
    device.check_addr(addr)
    return (addr,)


def raqm_reset(device: RaqmDevice, state: sv.StateVector, addr: int | None, rng) -> sv.StateVector:
    """Measure-and-discard reset of one cell (or all cells) to |0>.

    Entangled partners collapse accordingly; a unitary cannot unconditionally
    reset an entangled cell.
    """
    for a in reset_addresses(device, addr):
        sv.reset_qubit(state, device.cell_qubits[a], rng)
        device.cell_status[a] = RESET
    return state


class BufferStatus(enum.Enum):
    """Buffer query outcome with the paper-exact S/F bit assignment."""

    READ_SUCCESS = "ReadSuccess"
    READ_UNDERFLOW = "ReadUnderflow"
    WRITE_STORED = "WriteStored"
    WRITE_OVERFLOW = "WriteOverflow"

    @property
    def sf_bit(self) -> int:
        return 1 if self in (BufferStatus.READ_SUCCESS, BufferStatus.WRITE_OVERFLOW) else 0


@dataclass
class BufferDevice:
    """FIFO store for probabilistically generated states."""

    cell_qubits: tuple[int, ...]
    fifo_queue: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.cell_qubits = tuple(self.cell_qubits)

    @property
    def capacity(self) -> int:
        return len(self.cell_qubits)

    def _free_cell(self) -> int:
        used = set(self.fifo_queue)
        for i in range(self.capacity):
            if i not in used:
                return i
        raise AddressError("no free cell in a non-full buffer")  # unreachable


def buffer_write(device: BufferDevice, state: sv.StateVector, bus: int):
    """Store the bus state into the lowest-index free cell, FIFO-ordered.

    Full buffer: the bus does not interact and the S/F bit reports overflow.
    """
    if len(device.fifo_queue) >= device.capacity:
        return BufferStatus.WRITE_OVERFLOW, state
    cell = device._free_cell()
    qmc_swap(state, bus, device.cell_qubits[cell])
    device.fifo_queue.append(cell)
    return BufferStatus.WRITE_STORED, state


def buffer_read(device: BufferDevice, state: sv.StateVector, bus: int):
    """Swap the oldest stored state onto the bus; underflow leaves bus alone."""
    if not device.fifo_queue:
        return BufferStatus.READ_UNDERFLOW, state
    cell = device.fifo_queue.pop(0)
    qmc_swap(state, device.cell_qubits[cell], bus)
    return BufferStatus.READ_SUCCESS, state


def cache_admit(alpha_ex_qc: float, beta_qm: float, r_threshold: float = 2.0) -> bool:
    """Cache admission: keep data in the cache only if its rescaled storage
    time beats round-tripping through the main memory by the threshold."""
    if beta_qm <= 0:
        raise ArgumentError("beta_qm must be positive")
    return alpha_ex_qc / beta_qm > r_threshold


def memory_dump(device: RaqmDevice, state: sv.StateVector,
                product_tol: float = 1e-6) -> list[str]:
    """Per-cell report: `addr<TAB>status<TAB>purity<TAB>state-or-entangled`.

    Unentangled cells print their 2-amplitude state with the first nonzero
    amplitude made real-positive (global phase is not observable).
    """
    lines = []
    for addr, q in enumerate(device.cell_qubits):
        purity = sv.reduced_purity(state, [q])
        if purity >= 1 - product_tol:
            rho = _single_qubit_rho(state, q)
            vals, vecs = np.linalg.eigh(rho)
            vec = vecs[:, int(np.argmax(vals))]
            k = 0 if abs(vec[0]) > 1e-9 else 1
            vec = vec * (abs(vec[k]) / vec[k])
            desc = f"|0>:{vec[0].real:.6f}{vec[0].imag:+.6f}j |1>:{vec[1].real:.6f}{vec[1].imag:+.6f}j"
        else:
            desc = "entangled"
        lines.append(f"{addr}\t{device.cell_status[addr]}\t{purity:.9f}\t{desc}")
    return lines


def _single_qubit_rho(state: sv.StateVector, q: int):
    psi = state.amps.reshape(-1, 2, 1 << q)
    a0 = psi[:, 0, :].ravel()
    a1 = psi[:, 1, :].ravel()
    rho = np.empty((2, 2), dtype=np.complex128)
    rho[0, 0] = np.vdot(a0, a0)
    rho[1, 1] = np.vdot(a1, a1)
    rho[0, 1] = np.vdot(a1, a0)
    rho[1, 0] = np.conj(rho[0, 1])
    return rho
