"""Interpreter: runs a validated program against one shared StateVector.

All declared qubit registers live in one state, followed by the `mem` RAQM
cells and (under the circuit backend) each QRAM's routing block. Load/Store/
MReset delegate to the RAQM device model, qld to the QRAM oracle. Every
unitary actually applied is recorded in an execution trace that can be
replayed gate-by-gate on a fresh state (the flattened-circuit cross-check).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .. import memdev, qram
from .. import statevec as sv
from ..errors import (AddressError, ArgumentError, PostSelectionError,
                      QmemError, ResourceError, ShotError, ValidationFailure)
from . import nodes as n
from .validator import has_errors, validate


@dataclass
class TimingProfile:
    """Per-instruction durations for the timeline report.

    The resulting fidelity estimate (op fidelities times exp(-t_occupied /
    T_storage) for memory cells) is a heuristic report, not a prediction.
    """

    gate_time: float = 40e-9
    gate_fidelity: float = 1.0
    measure_time: float = 40e-9
    raqm: memdev.RaqmTiming | None = None
    raqm_fidelity: float = 1.0
    qram_stage_time: float = 40e-9


@dataclass
class RunConfig:
    post_select: dict = field(default_factory=dict)  # (reg, idx) -> bit
    backend: str = "functional"
    timing: TimingProfile | None = None
    store_policy: str = "swap"
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.backend not in ("functional", "circuit"):
            raise ArgumentError(f"unknown backend {self.backend!r}")


def parse_post_select(text: str) -> tuple[str, int, int]:
    """`caux[0]=1` or `caux0=1` -> ("caux", 0, 1)."""
    if "=" not in text:
        raise ArgumentError(f"bad post-select spec {text!r}; expected bit=value")
    key, _, value = text.partition("=")
    key = key.strip()
    if key.endswith("]") and "[" in key:
        name, _, idx = key[:-1].partition("[")
    else:
        name = key.rstrip("0123456789")
        idx = key[len(name):]
        if not idx:
            idx = "0"
    value = value.strip()
    if not name or not idx.strip().isdecimal() or value not in ("0", "1"):
        raise ArgumentError(
            f"bad post-select spec {text!r}; expected e.g. caux[0]=1 with value 0 or 1")
    return name.strip(), int(idx), int(value)


@dataclass
class RunResult:
    status: str                      # "ok" | "error"
    error: str | None
    classical: dict                  # bit registers -> list[int], ints -> int
    final_state: sv.StateVector | None
    memory_dump: list
    timeline: list                   # (t_start, op, duration)
    fidelity_estimate: float | None
    shot_log: list
    warnings: list
    trace: list                      # ("gate", GateSpec) | ("measure", q, outcome, prob, forced)
    num_qubits: int = 0

    def bitstring(self, reg: str) -> str:
        """MSB-first rendering of a bit register (element 0 rightmost)."""
        return "".join(str(b) for b in reversed(self.classical[reg]))


def execute(program: n.Program, seed: int, config: RunConfig | None = None) -> RunResult:
    """Run one shot: `run_shots(program, seed, 1, config)[0]`.

    Raises ValidationFailure on error diagnostics; runtime failures abort the
    shot and are reported in status/shot_log instead.
    """
    return run_shots(program, seed, 1, config)[0]


def run_shots(program: n.Program, seed: int, shots: int,
              config: RunConfig | None = None) -> list[RunResult]:
    """`list(iter_shots(program, seed, shots, config))`."""
    return list(iter_shots(program, seed, shots, config))


def iter_shots(program: n.Program, seed: int, shots: int,
               config: RunConfig | None = None):
    """Independent shots with seeds seed, seed+1, ... (deterministic), yielded
    one RunResult at a time: a caller that drops each result before asking
    for the next holds at most two states, the shared prefix and one shot.

    The program is validated once, when the first result is asked for. Its
    leading top-level statements that contain no measure, reset or mreset
    anywhere inside them draw nothing from the RNG, so they run once; every
    shot then continues from a copy of that point with its own
    `default_rng(seed + i)` (the last shot takes the original). Each shot's
    result is identical to running the whole program from scratch with its
    seed, including a shot error raised in the prefix.
    """
    if shots < 1:
        return
    config = config or RunConfig()
    diagnostics = validate(program)
    if has_errors(diagnostics):
        raise ValidationFailure([d for d in diagnostics if d.severity == "error"])
    split = _rng_free_prefix(program.body)
    prefix = _Interpreter(program, seed, config)
    prefix.run(program.body[:split])
    for i in range(shots):
        # no name here holds the shot, so a dropped result frees its state
        yield (prefix if i == shots - 1 else prefix.fork()).finish(
            seed + i, program.body[split:])


def aggregate_counts(results, reg: str) -> dict:
    counts = {}
    for r in results:
        if r.status == "ok" and reg in r.classical:
            key = r.bitstring(reg)
            counts[key] = counts.get(key, 0) + 1
    return counts


def replay_trace(trace, num_qubits: int) -> sv.StateVector:
    """Re-run a recorded execution trace on a fresh |0...0> state.

    Measurements are replayed as projections onto the recorded outcomes, so
    the result must match the interpreter's final state exactly (up to float
    associativity) if the device bookkeeping introduced no extra physics.
    """
    state = sv.init_state(num_qubits)
    for entry in trace:
        if entry[0] == "gate":
            sv.apply_gate(state, entry[1])
        elif entry[0] == "measure":
            _, qubit, outcome = entry[:3]
            sv.postselect_qubit(state, qubit, outcome)
    return state


class _QramBinding:
    def __init__(self, device, layout=None):
        self.device = device
        self.layout = layout  # CircuitLayout when the circuit backend is on


class _Interpreter:
    def __init__(self, program, seed, config):
        self.program = program
        self.config = config
        self.reseed(seed)
        self.error = None   # the shot error that stopped the shot, if any
        self.steps = 0
        self.trace = []
        self.timeline = []
        self.clock = 0.0
        self.fidelity = 1.0
        self.measurements = []
        self.warnings = list(program.warnings)
        self.ints = {}
        self.bits = {}
        self.gate_defs = {}
        self.qregs = {}     # name -> list of qubit indices
        self.qrams = {}     # name -> _QramBinding
        self.mem = None     # RaqmDevice
        self.cell_busy_since = {}
        self.cell_busy_total = {}
        self._build_layout()

    # -- layout -----------------------------------------------------------

    def _build_layout(self):
        cursor = 0
        labels = []
        mem_size = 0
        qram_decls = []
        for stmt in n.walk(self.program.body):
            if isinstance(stmt, n.QubitDecl):
                self.qregs[stmt.name] = list(range(cursor, cursor + stmt.size))
                labels += [f"{stmt.name}[{i}]" for i in range(stmt.size)]
                cursor += stmt.size
            elif isinstance(stmt, n.MemDecl):
                mem_size = stmt.size
            elif isinstance(stmt, n.QramDecl):
                qram_decls.append(stmt)

        if mem_size:
            cells = tuple(range(cursor, cursor + mem_size))
            labels += [f"mem[{i}]" for i in range(mem_size)]
            cursor += mem_size
            timing = self.config.timing.raqm if self.config.timing else None
            self.mem = memdev.RaqmDevice(cell_qubits=cells, timing=timing,
                                         store_policy=self.config.store_policy)

        for decl in qram_decls:
            device = qram.QramDevice(addr_len=decl.addr_len, word_len=decl.word_len)
            layout = None
            if self.config.backend == "circuit":
                if decl.addr_len > qram.MAX_CIRCUIT_ADDR_BITS:
                    raise ResourceError(
                        f"qram {decl.name!r}: circuit backend supports at most "
                        f"{qram.MAX_CIRCUIT_ADDR_BITS} address bits, got {decl.addr_len}")
                blocks = {}
                for kind, count in (("memory", device.num_cells),
                                    ("routers", device.num_addresses - 1),
                                    ("channels", decl.addr_len)):
                    blocks[kind] = tuple(range(cursor, cursor + count))
                    labels += [f"{decl.name}.{kind}[{i}]" for i in range(count)]
                    cursor += count
                layout = qram.CircuitLayout(addr=(), bus=(), **blocks)
                device.memory_qubits = blocks["memory"]
            self.qrams[decl.name] = _QramBinding(device, layout)

        if cursor == 0:
            raise ArgumentError("program declares no qubits")
        if cursor > sv.DEFAULT_MAX_QUBITS:
            raise ResourceError(
                f"program needs {cursor} qubits; budget is {sv.DEFAULT_MAX_QUBITS}")
        self.state = sv.init_state(cursor, labels=labels)

    # -- execution ----------------------------------------------------------

    def reseed(self, seed):
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def fork(self) -> "_Interpreter":
        """A copy of this shot so far that shares no mutable object with it."""
        other = copy.copy(self)
        other.state = self.state.copy()
        other.trace = list(self.trace)
        other.timeline = list(self.timeline)
        other.measurements = list(self.measurements)
        other.warnings = list(self.warnings)
        other.ints = dict(self.ints)
        other.bits = {name: list(reg) for name, reg in self.bits.items()}
        other.gate_defs = dict(self.gate_defs)
        other.cell_busy_since = dict(self.cell_busy_since)
        other.cell_busy_total = dict(self.cell_busy_total)
        if self.mem is not None:
            other.mem = copy.copy(self.mem)
            other.mem.cell_status = list(self.mem.cell_status)
        other.qrams = {}
        for name, binding in self.qrams.items():
            device = copy.copy(binding.device)
            if device.classical_data is not None:
                device.classical_data = list(device.classical_data)
            other.qrams[name] = _QramBinding(device, binding.layout)
        return other

    def finish(self, seed, stmts) -> RunResult:
        """Reseed, run the rest of the shot and return its result."""
        self.reseed(seed)
        self.run(stmts)
        return self.result()

    def run(self, stmts):
        """Execute top-level statements, unless a shot error stopped the shot."""
        if self.error is not None:
            return
        try:
            self._exec_block(stmts)
        except (ShotError, AddressError, PostSelectionError, QmemError) as exc:
            self.error = f"{type(exc).__name__}: {exc}"

    def result(self) -> RunResult:
        status = "ok" if self.error is None else "error"
        if self.config.timing and self.mem and self.mem.timing \
                and self.mem.timing.t_storage:
            for cell in list(self.cell_busy_since):  # released cells are popped
                self._cell_release(cell)
            for cell, total in self.cell_busy_total.items():
                self.fidelity *= math.exp(-total / self.mem.timing.t_storage)
        shot_entry = {
            "shot": self.seed,
            "status": status,
            "error": self.error,
            "measurements": list(self.measurements),
        }
        return RunResult(
            status=status,
            error=self.error,
            classical={**{k: list(v) for k, v in self.bits.items()}, **self.ints},
            final_state=self.state,
            memory_dump=memdev.memory_dump(self.mem, self.state) if self.mem else [],
            timeline=self.timeline,
            fidelity_estimate=self.fidelity if self.config.timing else None,
            shot_log=[shot_entry],
            warnings=self.warnings,
            trace=self.trace,
            num_qubits=self.state.num_qubits,
        )

    def _step(self, stmt):
        self.steps += 1
        if self.steps > self.config.max_steps:
            raise ShotError(
                f"instruction budget of {self.config.max_steps} exceeded "
                f"(possible runaway loop at {stmt.pos})")

    def _exec_block(self, stmts):
        for stmt in stmts:
            self._exec(stmt)

    def _exec(self, stmt):
        self._step(stmt)
        if isinstance(stmt, (n.QubitDecl, n.MemDecl, n.QramDecl)):
            return  # handled at layout time
        if isinstance(stmt, n.BitDecl):
            init = stmt.init or []
            self.bits[stmt.name] = [int(b) for b in init] + [0] * (stmt.size - len(init))
            return
        if isinstance(stmt, n.IntDecl):
            self.ints[stmt.name] = int(self._eval(stmt.init)) if stmt.init else 0
            return
        if isinstance(stmt, n.GateDef):
            self.gate_defs[stmt.name] = stmt
            return
        if isinstance(stmt, n.Assign):
            self.ints[stmt.name] = int(self._eval(stmt.expr))
            return
        if isinstance(stmt, n.If):
            branch = stmt.then if self._eval(stmt.cond) else stmt.orelse
            self._exec_block(branch)
            return
        if isinstance(stmt, n.While):
            while self._eval(stmt.cond):
                self._step(stmt)
                self._exec_block(stmt.body)
            return
        if isinstance(stmt, n.For):
            start = int(self._eval(stmt.start))
            end = int(self._eval(stmt.end))
            for value in range(start, end + 1):  # inclusive range
                self.ints[stmt.var] = value
                self._exec_block(stmt.body)
            return
        if isinstance(stmt, n.GateCall):
            self._gate_call(stmt)
            return
        if isinstance(stmt, n.Measure):
            self._measure(stmt)
            return
        if isinstance(stmt, n.ResetStmt):
            for q in self._resolve_qubits(stmt.qarg):
                self._reset(q)
                self._tick("reset", self._gate_time())
            return
        if isinstance(stmt, (n.Load, n.Store)):
            self._load_store(stmt.qarg, stmt.addr, store=isinstance(stmt, n.Store))
            return
        if isinstance(stmt, n.MResetStmt):
            self._mreset(stmt)
            return
        if isinstance(stmt, n.QInit):
            self._qinit(stmt)
            return
        if isinstance(stmt, n.QLoad):
            self._qload(stmt)
            return
        raise ShotError(f"unhandled statement {type(stmt).__name__} at {stmt.pos}")

    # -- classical expressions ---------------------------------------------

    def _eval(self, expr, env=None):
        if isinstance(expr, n.Num):
            return expr.value
        if isinstance(expr, n.Pi):
            return math.pi
        if isinstance(expr, n.Name):
            if env and expr.id in env:
                return env[expr.id]
            if expr.id in self.ints:
                return self.ints[expr.id]
            raise ShotError(f"unknown name {expr.id!r} at {expr.pos}")
        if isinstance(expr, n.Index):
            reg = self.bits.get(expr.name)
            if reg is None:
                raise ShotError(f"unknown bit register {expr.name!r} at {expr.pos}")
            idx = int(self._eval(expr.index, env))
            if not 0 <= idx < len(reg):
                raise ShotError(f"index {idx} out of range for {expr.name} at {expr.pos}")
            return reg[idx]
        if isinstance(expr, n.UnaryOp):
            return -self._eval(expr.operand, env)
        if isinstance(expr, n.BinOp):
            left = self._eval(expr.left, env)
            right = self._eval(expr.right, env)
            op = expr.op
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op in ("/", "%") and right == 0:
                raise ShotError(f"division by zero at {expr.pos}")
            if op == "/":
                return left / right
            if op == "%":
                return left % right
            if op == "**":
                return left ** right
            if op == "==":
                return left == right
            if op == "!=":
                return left != right
            if op == "<":
                return left < right
            if op == ">":
                return left > right
            if op == "<=":
                return left <= right
            if op == ">=":
                return left >= right
        raise ShotError(f"cannot evaluate expression {expr!r}")

    # -- registers -----------------------------------------------------------

    def _select(self, arg: n.QArg, reg, kind) -> slice:
        """The part of `reg` that `r`, `r[i]` or `r[a:b]` selects."""
        if reg is None:
            raise ShotError(f"undeclared {kind} register {arg.name!r} at {arg.pos}")
        if arg.index is not None:
            idx = int(self._eval(arg.index))
            if not 0 <= idx < len(reg):
                raise ShotError(f"index {idx} out of range for {arg.name} at {arg.pos}")
            return slice(idx, idx + 1)
        if arg.slice is not None:
            start = int(self._eval(arg.slice[0]))
            end = len(reg) - 1 if arg.slice[1] is None else int(self._eval(arg.slice[1]))
            if not (0 <= start <= end < len(reg)):
                raise ShotError(f"slice [{start}:{end}] out of range for {arg.name}")
            return slice(start, end + 1)
        return slice(None)

    def _resolve_qubits(self, arg: n.QArg) -> list[int]:
        reg = self.qregs.get(arg.name)
        return reg[self._select(arg, reg, "qubit")]

    # -- unitaries ------------------------------------------------------------

    def _apply(self, g: sv.GateSpec):
        sv.apply_gate(self.state, g)
        self.trace.append(("gate", g))

    def _gate_time(self):
        return self.config.timing.gate_time if self.config.timing else 0.0

    def _tick(self, label, duration, fidelity=1.0):
        if self.config.timing is None:
            return
        self.timeline.append((self.clock, label, duration))
        self.clock += duration
        self.fidelity *= fidelity

    def _gate_call(self, stmt: n.GateCall, extra_controls=(), env=None, mapping=None):
        """Apply a gate call, broadcast over register arguments. Inside a gate
        body, `mapping` binds the gate's argument names to qubits."""
        params = [self._eval(p, env) for p in stmt.params]
        if mapping is None:
            arg_qubits = [self._resolve_qubits(a) for a in stmt.args]
        else:
            arg_qubits = [[mapping[a.name]] for a in stmt.args]
        width = max(len(a) for a in arg_qubits)
        for a in arg_qubits:
            if len(a) not in (1, width):
                raise ShotError(f"broadcast width mismatch at {stmt.pos}")
        for i in range(width):
            chosen = [a[i] if len(a) > 1 else a[0] for a in arg_qubits]
            controls = tuple(extra_controls) + tuple(chosen[:stmt.nctrl])
            self._apply_named(stmt.name, params, chosen[stmt.nctrl:], controls, stmt.pos)

    def _apply_named(self, name, params, targets, controls, pos):
        if name == "h":
            self._emit(sv.gate("h", targets, controls=controls))
        elif name == "x":
            self._emit(sv.gate("x", targets, controls=controls))
        elif name == "cx":
            self._emit(sv.gate("cnot", targets, controls=controls))
        elif name == "U":
            self._emit(sv.gate("u", targets, tuple(float(p) for p in params),
                               controls=controls))
        elif name in self.gate_defs:
            self._expand_user_gate(self.gate_defs[name], params, targets, controls)
        else:
            raise ShotError(f"unknown gate {name!r} at {pos}")

    def _emit(self, g: sv.GateSpec):
        self._apply(g)
        fid = self.config.timing.gate_fidelity if self.config.timing else 1.0
        self._tick(f"gate:{g.kind}", self._gate_time(), fid)

    def _expand_user_gate(self, gd: n.GateDef, params, targets, controls):
        if len(params) != len(gd.params) or len(targets) != len(gd.args):
            raise ShotError(f"gate {gd.name!r} called with wrong arity")
        env = dict(zip(gd.params, params))
        mapping = dict(zip(gd.args, targets))
        for stmt in gd.body:
            if isinstance(stmt, n.AngleDecl):
                env[stmt.name] = self._eval(stmt.expr, env)
            elif isinstance(stmt, n.GateCall):
                self._gate_call(stmt, controls, env, mapping)
            else:
                raise ShotError(f"bad statement in gate body of {gd.name!r}")

    # -- measurement -----------------------------------------------------------

    def _measure(self, stmt: n.Measure):
        qubits = self._resolve_qubits(stmt.qarg)
        reg = stmt.carg.name
        chosen = self._select(stmt.carg, self.bits.get(reg), "bit")
        bits = range(len(self.bits[reg]))[chosen]
        if len(qubits) != len(bits):
            raise ShotError(f"measure width mismatch at {stmt.pos}")
        for q, idx in zip(qubits, bits):
            forced = self.config.post_select.get((reg, idx))
            if forced is None:
                p1 = self.state.probability(q, 1)
                outcome, _ = sv.measure_qubit(self.state, q, self.rng)
                prob = p1 if outcome else 1.0 - p1
            else:
                prob, _ = sv.postselect_qubit(self.state, q, forced)
                outcome = forced
            self.bits[reg][idx] = outcome
            self.measurements.append(
                {"bit": f"{reg}[{idx}]", "outcome": outcome, "probability": prob,
                 "forced": forced is not None})
            self.trace.append(("measure", q, outcome, prob, forced is not None))
            self._tick(f"measure:{reg}[{idx}]",
                       self.config.timing.measure_time if self.config.timing else 0.0)

    def _reset(self, q):
        """Measure-and-reset one qubit to |0>, recorded as a measurement and,
        if the outcome was 1, an X."""
        outcome = sv.reset_qubit(self.state, q, self.rng)
        self.trace.append(("measure", q, outcome, None, False))
        if outcome:
            self.trace.append(("gate", sv.gate("x", (q,))))

    # -- memory primitives -------------------------------------------------------

    def _raqm_duration(self):
        if self.config.timing and self.config.timing.raqm:
            return self.config.timing.raqm.t_rw
        return self._gate_time()

    def _cell_occupy(self, addr):
        if self.config.timing:
            self.cell_busy_since[addr] = self.clock

    def _cell_release(self, addr):
        if self.config.timing and addr in self.cell_busy_since:
            start = self.cell_busy_since.pop(addr)
            self.cell_busy_total[addr] = self.cell_busy_total.get(addr, 0.0) \
                + (self.clock - start)

    def _load_store(self, qarg, addr_expr, store):
        if self.mem is None:
            raise ShotError("ld/st without a mem declaration")
        qubits = self._resolve_qubits(qarg)
        base = int(self._eval(addr_expr))
        fid = self.config.timing.raqm_fidelity if self.config.timing else 1.0
        for i, q in enumerate(qubits):
            addr = base + i  # raqm_store/raqm_load check it
            if store:
                memdev.raqm_store(self.mem, self.state, addr, q)
            else:
                self._cell_release(addr)  # occupancy ends when the load begins
                memdev.raqm_load(self.mem, self.state, addr, q)
            # the device op applied one SWAP; mirror it into the trace
            self.trace.append(("gate", sv.gate("swap", (q, self.mem.cell_qubits[addr]))))
            self._tick("st" if store else "ld", self._raqm_duration(), fid)
            if store:
                self._cell_occupy(addr)  # occupancy starts once the store completes

    def _mreset(self, stmt):
        if self.mem is None:
            raise ShotError("mreset without a mem declaration")
        addr = None if stmt.addr is None else int(self._eval(stmt.addr))
        targets = range(self.mem.capacity) if addr is None else [addr]
        if addr is not None:
            self.mem.check_addr(addr)
        for a in targets:
            self._reset(self.mem.cell_qubits[a])
            self.mem.cell_status[a] = memdev.RESET
            self._cell_release(a)
            self._tick("mreset", self._raqm_duration())

    # -- QRAM primitives ---------------------------------------------------------

    def _qinit(self, stmt):
        binding = self.qrams.get(stmt.name)
        if binding is None:
            raise ShotError(f"undeclared qram {stmt.name!r}")
        if isinstance(stmt.source, n.Name):
            data = self.bits.get(stmt.source.id)
            if data is None:
                raise ShotError(f"qinit source {stmt.source.id!r} not initialized")
        else:
            data = stmt.source
        if binding.layout is not None and binding.device.classical_data is not None:
            raise ShotError("circuit backend does not support re-running qinit")
        # only the circuit backend materializes cells; the functional one has none
        qram.qinit_load(binding.device, data, self.state)
        self.trace.extend(("gate", g) for g in qram.qinit_gates(binding.device))
        self._tick(f"qinit:{stmt.name}", self._gate_time())

    def _qload(self, stmt):
        binding = self.qrams.get(stmt.name)
        if binding is None:
            raise ShotError(f"undeclared qram {stmt.name!r}")
        bus = self._resolve_qubits(stmt.bus)
        addr = self._resolve_qubits(stmt.addr)
        device = binding.device
        if binding.layout is None:
            if device.classical_data is None:
                raise ShotError("qld before qinit")
            if len(addr) != device.addr_len or len(bus) != device.word_len:
                raise ShotError(
                    f"qld needs {device.addr_len} address and {device.word_len} bus "
                    f"qubits, got {len(addr)}/{len(bus)}")
            for g in qram.oracle_gates(device.classical_data, addr, bus):
                self._apply(g)
        else:
            layout = qram.CircuitLayout(
                addr=tuple(addr), bus=tuple(bus), routers=binding.layout.routers,
                channels=binding.layout.channels, memory=binding.layout.memory)
            mode = qram.QramMode(qram.Direction.READ, qram.DataKind.CLASSICAL,
                                 qram.Coupling.CNOT)
            program = qram.build_router_program(device, mode, layout)
            sv.apply_basis_permutation(self.state, program)
            self.trace.extend(("gate", g) for g in program)
        duration = device.addr_len * (self.config.timing.qram_stage_time
                                      if self.config.timing else 0.0)
        self._tick(f"qld:{stmt.name}", duration)


# Statements that draw from the shot's RNG.
_RNG_STATEMENTS = (n.Measure, n.ResetStmt, n.MResetStmt)


def _rng_free_prefix(body) -> int:
    """Number of leading statements with no RNG-drawing statement inside them."""
    for i, stmt in enumerate(body):
        if any(isinstance(s, _RNG_STATEMENTS) for s in n.walk([stmt])):
            return i
    return len(body)

