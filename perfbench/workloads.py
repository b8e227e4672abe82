"""Workloads of the qmemsim benchmark.

Each workload makes its inputs from the workload seed, defines one operation
(a call into qmemsim's public library API) and checks every output against a
computation made apart from qmemsim, with numpy alone. Qubits are found by
their state labels (`mem[i]`, `qr.memory[i]`), never by a hard-coded index.

A check returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import math
import random
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
QFT_PROGRAM = SRC / "qmemsim" / "examples" / "qft_amplitude_clean.qmasm"

FIDELITY_TOL = 1e-9
PROBABILITY_TOL = 1e-12

# Table 4 of the paper: which subsystems each QRAM mode leaves entangled on a
# generic input. Held here so the check does not read qram.MODE_PATTERNS.
TABLE4_PATTERNS = {
    "read-classical-cnot": "addr, b",
    "read-classical-swap": "all",
    "read-quantum-cnot": "all",
    "read-quantum-swap": "all",
    "write-classical-cnot": "all",
    "write-classical-swap": "addr, QMC",
    "write-quantum-cnot": "all",
    "write-quantum-swap": "addr, QMC",
}

# Read and write modes alternate, so both directions share every stretch of
# a run and a change that trades one for the other shows in the tail.
MODE_ORDER = (
    "read-classical-cnot", "write-classical-cnot",
    "read-classical-swap", "write-classical-swap",
    "read-quantum-cnot", "write-quantum-cnot",
    "read-quantum-swap", "write-quantum-swap",
)


class MissingProgram(RuntimeError):
    """The checkout holds no qmemsim source tree to benchmark."""


def load_qmemsim() -> dict:
    """Import qmemsim from this checkout's `src/` tree, never from elsewhere."""
    package = SRC / "qmemsim"
    if not (package / "__init__.py").is_file():
        raise MissingProgram(f"no qmemsim package at {package}")
    sys.path.insert(0, str(SRC))
    import qmemsim
    if Path(qmemsim.__file__).resolve().parent != package.resolve():
        raise MissingProgram(f"qmemsim imported from {qmemsim.__file__}, not {package}")
    from qmemsim import memdev, qram, statevec
    from qmemsim.qmasm import interpreter, parser
    return {"statevec": statevec, "qram": qram, "memdev": memdev,
            "interpreter": interpreter, "parser": parser}


# -- numpy helpers, independent of qmemsim --------------------------------------


def label_positions(labels, wanted):
    """Qubit index of each wanted label; raises KeyError naming a missing one."""
    where = {label: i for i, label in enumerate(labels)}
    return [where[w] for w in wanted]


def reduced_density(amps, num_qubits, qubits):
    """Density matrix of `qubits` (qubits[0] least significant) by a partial trace."""
    psi = amps.reshape((2,) * num_qubits)
    axes = [num_qubits - 1 - q for q in reversed(qubits)]  # most significant first
    m = np.moveaxis(psi, axes, range(len(qubits))).reshape(1 << len(qubits), -1)
    return m @ m.conj().T


def u_ket(theta, phi):
    """First column of U(theta, phi, lambda): U|0>."""
    return np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)])


def shot_measurements(result):
    return {m["bit"]: m for m in result.shot_log[0]["measurements"]}


def trace_gate_count(results):
    return sum(1 for r in results for e in r.trace if e[0] == "gate")


def outcome_counts(results):
    """Outcome count per bit register, keyed by MSB-first bitstring."""
    counts = {}
    for r in results:
        for reg, value in r.classical.items():
            if isinstance(value, list) and r.status == "ok":
                key = "".join(str(b) for b in reversed(value))
                per_reg = counts.setdefault(reg, {})
                per_reg[key] = per_reg.get(key, 0) + 1
    return counts


def merge_counts(total, part):
    for reg, per_reg in part.items():
        into = total.setdefault(reg, {})
        for key, c in per_reg.items():
            into[key] = into.get(key, 0) + c
    return total


# -- qram-check-a3 ----------------------------------------------------------------


class QramCheckA3:
    """`qram.check_mode(3, mode, seed)` round-robin over the 8 modes.

    One call is one operation: the router-tree backend on the 22-qubit
    layout, cross-checked against the functional backend.
    """

    name = "qram-check-a3"
    round_ops = len(MODE_ORDER)
    stats_ops = len(MODE_ORDER)

    def __init__(self, mods, seed):
        self.qram = mods["qram"]
        self.modes = [self.qram.QramMode.parse(m) for m in MODE_ORDER]
        self._seeds = random.Random(seed)

    def op(self, i):
        mode = self.modes[i % len(self.modes)]
        return self.qram.check_mode(3, mode, self._seeds.randrange(1 << 31))

    def check(self, i, result):
        want_mode = MODE_ORDER[i % len(MODE_ORDER)]
        problems = []
        if result.mode != want_mode:
            problems.append(f"mode {result.mode!r}, expected {want_mode!r}")
        if not result.fidelity >= 1 - FIDELITY_TOL:
            problems.append(f"backend fidelity {result.fidelity!r} < 1-{FIDELITY_TOL}")
        if not 1 - FIDELITY_TOL <= result.ancilla_zero_prob <= 1 + FIDELITY_TOL:
            problems.append(f"ancilla |0> probability {result.ancilla_zero_prob!r}")
        expected = TABLE4_PATTERNS[want_mode]
        if result.pattern != expected:
            problems.append(f"pattern {result.pattern!r}, Table 4 has {expected!r}")
        return problems

    def sim_stats(self, i, result):
        return {"mode": result.mode, "seed": result.seed, "pattern": result.pattern}

    def finish(self):
        return []

    def router_gates(self):
        """Router-program gate count of each mode on the 3-bit layout."""
        device = self.qram.QramDevice(addr_len=3)
        return {m.name: len(self.qram.build_router_program(device, m))
                for m in self.modes}


# -- qft-shots ------------------------------------------------------------------------


class QftShots:
    """Unconditioned `run_shots` batches of examples/qft_amplitude_clean.qmasm.

    One batch of BATCH shots is one operation, the work of
    `qmem run --shots BATCH`. Shot seeds follow on from the workload seed.
    """

    name = "qft-shots"
    BATCH = 50
    round_ops = 1
    stats_ops = 4

    def __init__(self, mods, seed):
        self.interp = mods["interpreter"]
        text = QFT_PROGRAM.read_text()
        self.program = mods["parser"].parse_program(text)
        literal = re.search(r"bit\[16\]\s+vec\s*=\s*\[([01,\s]*)\]", text)
        self.data = [int(b) for b in literal.group(1).replace(",", " ").split()]
        self.base = seed * 1_000_000
        self.shots = 0
        self.flag_ones = 0
        self._oracle = None

    def op(self, i):
        return self.interp.run_shots(self.program, self.base + i * self.BATCH, self.BATCH)

    def oracle(self):
        """Expected memory-cell states of both branches, cell 0 least significant.

        caux[0]=1: the QFT of the uniform superposition over the addresses
        holding 1, which is numpy's inverse DFT in the unitary normalisation
        (the QFT's phase sign is +2*pi*i*j*k/N). caux[0]=0: the uniform
        superposition over the addresses holding 0.
        """
        if self._oracle is None:
            ones = np.array(self.data, dtype=float)
            support = ones / np.linalg.norm(ones)
            zeros = 1.0 - ones
            self._oracle = {1: np.fft.ifft(support, norm="ortho"),
                            0: zeros / np.linalg.norm(zeros)}
        return self._oracle

    def flag_probability(self):
        return sum(self.data) / len(self.data)

    def check(self, i, results):
        problems = []
        expected = self.oracle()
        p_flag = self.flag_probability()
        for r in results:
            where = f"shot {r.shot_log[0]['shot']}"
            if r.status != "ok":
                problems.append(f"{where}: {r.error}")
                continue
            meas = shot_measurements(r)
            flag = meas.get("caux[0]")
            if flag is None:
                problems.append(f"{where}: caux[0] was not measured")
                continue
            outcome = flag["outcome"]
            p = p_flag if outcome else 1 - p_flag
            if abs(flag["probability"] - p) > PROBABILITY_TOL:
                problems.append(f"{where}: caux[0]={outcome} recorded with "
                                f"probability {flag['probability']!r}, expected {p!r}")
            if outcome:
                unbus = meas.get("caux[1]")
                if unbus is None or unbus["outcome"] != 0 \
                        or abs(unbus["probability"] - 1) > FIDELITY_TOL:
                    problems.append(f"{where}: the second query left the bus set")
            state = r.final_state
            cells = label_positions(state.labels, [f"mem[{k}]" for k in range(4)])
            rho = reduced_density(state.amps, state.num_qubits, cells)
            want = expected[outcome]
            fidelity = float(np.vdot(want, rho @ want).real)
            if not fidelity >= 1 - FIDELITY_TOL:
                problems.append(f"{where}: memory-cell fidelity {fidelity!r} "
                                f"in branch caux[0]={outcome}")
            self.shots += 1
            self.flag_ones += outcome
        return problems

    def sim_stats(self, i, results):
        return {"trace_gates": trace_gate_count(results),
                "outcomes": outcome_counts(results)}

    def finish(self):
        """Run-level check: the caux[0]=1 count stays within 5 sigma of N*p."""
        if not self.shots:
            return ["no shot was checked"]
        p = self.flag_probability()
        mean = self.shots * p
        sigma = math.sqrt(self.shots * p * (1 - p))
        if abs(self.flag_ones - mean) > 5 * sigma:
            return [f"caux[0]=1 in {self.flag_ones} of {self.shots} shots, "
                    f"more than 5 sigma from {mean:g}"]
        return []

    def router_gates(self):
        return {"functional backend": 0}


# -- qld-circuit ------------------------------------------------------------------


def qld_program(seed):
    """Seeded 22-qubit program: U-prepared 3-qubit address, one bus, a 3x1 QRAM
    loaded with non-constant 8-bit data, one `qld`, then a measurement of the bus.

    Returns the source text, the angle triples and the data bits. Angles are
    written with 12 decimals and the oracle uses the values as written.
    """
    rng = random.Random(seed)
    while True:
        data = [rng.randrange(2) for _ in range(8)]
        if 0 < sum(data) < 8:
            break
    angles = []
    for _ in range(3):
        text = (f"{rng.uniform(0.3, math.pi - 0.3):.12f}",
                f"{rng.uniform(0, 2 * math.pi):.12f}",
                f"{rng.uniform(0, 2 * math.pi):.12f}")
        angles.append(text)
    lines = ["OPENQASM 3;", "qubit[3] a;", "qubit[1] b;", "bit[1] c;",
             "qram qr[3,1];", f"qinit qr [{','.join(map(str, data))}];"]
    for i, (theta, phi, lam) in enumerate(angles):
        lines.append(f"U({theta}, {phi}, {lam}) a[{i}];")
    lines += ["qld qr(b)[a];", "measure b -> c[0];"]
    values = [tuple(float(x) for x in a) for a in angles]
    return "\n".join(lines) + "\n", values, data


class QldCircuit:
    """`run_shots` of the generated program under the circuit backend.

    One batch of BATCH shots is one operation.
    """

    name = "qld-circuit"
    BATCH = 2
    round_ops = 1
    stats_ops = 1

    def __init__(self, mods, seed):
        self.interp = mods["interpreter"]
        self.qram = mods["qram"]
        self.source, self.angles, self.data = qld_program(seed)
        self.program = mods["parser"].parse_program(self.source)
        self.config = self.interp.RunConfig(backend="circuit")
        self.base = seed * 1_000_000

    def op(self, i):
        return self.interp.run_shots(self.program, self.base + i * self.BATCH,
                                     self.BATCH, self.config)

    def address_amplitudes(self):
        """c_j of the address register, a[0] least significant."""
        kets = [u_ket(theta, phi) for theta, phi, _ in self.angles]
        c = np.ones(1)
        for k in kets:  # a[0] first, so it ends up least significant
            c = np.kron(k, c)
        return c

    def check(self, i, results):
        problems = []
        c = self.address_amplitudes()
        for r in results:
            where = f"shot {r.shot_log[0]['shot']}"
            if r.status != "ok":
                problems.append(f"{where}: {r.error}")
                continue
            meas = shot_measurements(r).get("c[0]")
            if meas is None:
                problems.append(f"{where}: c[0] was not measured")
                continue
            x = meas["outcome"]
            branch = [j for j in range(8) if self.data[j] == x]
            p = float(sum(abs(c[j]) ** 2 for j in branch))
            if abs(meas["probability"] - p) > FIDELITY_TOL:
                problems.append(f"{where}: bus={x} recorded with probability "
                                f"{meas['probability']!r}, expected {p!r}")
            problems += self._check_state(where, r.final_state, c, branch, x, p)
        return problems

    def _check_state(self, where, state, c, branch, x, p):
        """Fidelity with the projected sum_j c_j|j>|x_j>|data>|0...0>."""
        addr = label_positions(state.labels, [f"a[{k}]" for k in range(3)])
        bus = label_positions(state.labels, ["b[0]"])[0]
        cells = label_positions(state.labels, [f"qr.memory[{m}]" for m in range(8)])
        memory = sum(bit << q for bit, q in zip(self.data, cells))
        index = np.array([memory | (x << bus) | sum(((j >> k) & 1) << q
                                                    for k, q in enumerate(addr))
                          for j in branch])
        want = c[branch] / math.sqrt(p)
        norm = float(np.vdot(state.amps, state.amps).real)
        overlap = np.vdot(want, state.amps[index])
        fidelity = float(abs(overlap) ** 2) / norm
        problems = []
        if abs(norm - 1) > FIDELITY_TOL:
            problems.append(f"{where}: final state norm {norm!r}")
        if not fidelity >= 1 - FIDELITY_TOL:
            problems.append(f"{where}: final-state fidelity {fidelity!r}")
        return problems

    def sim_stats(self, i, results):
        return {"trace_gates": trace_gate_count(results),
                "outcomes": outcome_counts(results)}

    def finish(self):
        return []

    def router_gates(self):
        device = self.qram.QramDevice(addr_len=3)
        mode = self.qram.QramMode.parse("read-classical-cnot")
        return {mode.name: len(self.qram.build_router_program(device, mode))}


WORKLOADS = {w.name: w for w in (QramCheckA3, QftShots, QldCircuit)}
