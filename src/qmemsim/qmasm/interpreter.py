"""Interpreter: runs a validated program against one shared state.

All declared qubit registers live in one state, followed by the `mem` RAQM
cells and (under the circuit backend) each QRAM's routing block. Load/Store/
MReset delegate to the RAQM device model, qld to the QRAM oracle. Every
unitary actually applied is recorded in an execution trace that can be
replayed gate-by-gate on a fresh state (the flattened-circuit cross-check).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .. import memdev, qram
from .. import statevec as sv
from ..errors import (ArgumentError, QmemError, ResourceError, ShotError,
                      ValidationFailure)
from . import nodes as n
from .validator import BUILTIN_GATES, validate


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


# What an untimed run reads for every duration and fidelity; its _tick records
# nothing.
_UNTIMED = TimingProfile(gate_time=0.0, measure_time=0.0, qram_stage_time=0.0)


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
    timeline: list                   # (t_start, op, duration)
    fidelity_estimate: float | None
    shot_log: list
    warnings: list
    trace: list                      # ("gate", GateSpec) | ("measure", q, outcome, prob, forced)
    num_qubits: int = 0
    # memory_dump's arguments: the RAQM device with its cell statuses as the
    # shot ended, and the final state
    _dump_args: tuple | None = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def memory_dump(self) -> list:
        """memdev.memory_dump of the shot's memory cells, computed on first read."""
        return memdev.memory_dump(*self._dump_args) if self._dump_args else []

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
    one RunResult at a time. Each shot's result is identical to running the
    whole program from scratch with its seed, including a shot error raised
    in the prefix.

    The program is validated when the first result is asked for. Its
    leading top-level statements that contain no measure, reset or mreset
    anywhere inside them draw nothing from the RNG, so they run once (the
    prefix); a shot that runs continues from a copy of that point with its
    own `default_rng(seed + i)`.

    A Program is immutable, so it keeps this work between calls, on itself
    (see _Compiled): the validation outcome, the split and the prefix that
    ran, with the repr of the RunConfig it ran under. A later call reuses the
    prefix while its config has that repr and builds it again otherwise.
    The prefix is kept only while its state and records fit _LEAF_BUDGET,
    so a program holds at most about 1 MiB between calls; a larger prefix is
    freed when the call ends, and its last shot takes the original.

    A shot's result depends on its seed only through its draws, so a shot
    whose draws follow an outcome path that an earlier shot of the call
    finished is not run: it gets a copy of that shot's result, with its own
    seed in `shot_log` (see _OutcomePaths). Finished shots are kept for this
    only while together they fit about 1 MiB (_LEAF_BUDGET), and the last
    shot keeps none. So a caller that drops each result before asking for the next
    holds at most two states besides those kept leaves: the shared prefix
    and one shot.
    """
    if shots < 1:
        return
    config = config or RunConfig()
    compiled = program._compiled
    if compiled is None:
        compiled = _Compiled(program)
        object.__setattr__(program, "_compiled", compiled)
    if compiled.errors:
        raise ValidationFailure(list(compiled.errors))
    # repr, not ==: equal configs such as gate_time=1 and 1.0 put different
    # values in a shot's timeline
    key = repr(config)
    prefix = compiled.prefix
    if prefix is None or compiled.key != key:
        compiled.prefix = compiled.key = None  # freed before a new one is built
        prefix = _Interpreter(program, config)
        prefix.run(program.body[:compiled.split])
        if _footprint(prefix) <= _LEAF_BUDGET:
            compiled.prefix, compiled.key = prefix, key
    kept = prefix is compiled.prefix
    rest = program.body[compiled.split:]
    paths = _OutcomePaths()
    for i in range(shots):
        # no name here holds a shot that ran, so a dropped result frees its
        # state; a leaf is held by `paths` anyway
        leaf = paths.leaf(seed + i)
        if leaf is not None:
            yield leaf.replay(seed + i)
        elif i < shots - 1:
            yield prefix.fork(config).finish(seed + i, rest, paths)
        else:
            yield (prefix.fork(config) if kept else prefix).finish(seed + i, rest)


class _Compiled:
    """What running one Program needs that no seed or config changes (its
    error diagnostics and the end of its RNG-free prefix), and the prefix
    last run with the repr of its config, while it fits _LEAF_BUDGET."""

    __slots__ = ("errors", "split", "prefix", "key")

    def __init__(self, program):
        self.errors = [d for d in validate(program) if d.severity == "error"]
        self.split = _rng_free_prefix(program.body)
        self.prefix = self.key = None


# What the finished shots one iter_shots call keeps may take in all, in
# bytes, and what one entry of a shot's trace, timeline or draws costs (the
# entry with the objects it refers to, such as a GateSpec or a measurement
# record; measured with tracemalloc on the bundled examples).
_LEAF_BUDGET = 1 << 20
_LIST_ENTRY_BYTES = 256


class _PathNode:
    """A point of a shot after the draws on the path to it: either its next
    draw, with the p1 the draw is compared with and a child per outcome, or
    the end of the shot, with the finished shot as `leaf`."""

    __slots__ = ("p1", "next", "leaf")

    def __init__(self):
        self.p1 = None
        self.next = [None, None]
        self.leaf = None


class _OutcomePaths:
    """The outcome paths that the shots of one iter_shots call finished, as a
    trie of their draws.

    Every draw of a shot is `rng.random() < p1` in statevec._measure, and p1
    depends only on the outcomes drawn before it. So a shot's own
    `default_rng(seed)`, compared with the recorded p1 at each node, takes
    the branch a full run would take; if that reaches a leaf, the full run
    would end as that leaf did.
    """

    def __init__(self):
        self.root = _PathNode()
        self.free = _LEAF_BUDGET

    def leaf(self, seed):
        """The finished shot whose outcome path the shot with this seed
        follows, or None if it leaves the trie first."""
        node, rng = self.root, None
        while node.p1 is not None:
            if rng is None:
                rng = np.random.default_rng(seed)
            node = node.next[rng.random() < node.p1]
            if node is None:
                return None
        return node.leaf

    def add(self, shot):
        """Keep a fork of this finished, not yet reported shot, with its path,
        if it fits the budget."""
        size = _footprint(shot)
        if size > self.free:
            return
        self.free -= size
        node = self.root
        for p1, outcome in shot.draws:
            node.p1 = p1
            if node.next[outcome] is None:
                node.next[outcome] = _PathNode()
            node = node.next[outcome]
        node.leaf = shot.fork()


def _footprint(shot) -> int:
    """What keeping a fork of this shot costs, in bytes: its state and the
    entries of its trace, timeline and draws."""
    state = shot.state
    if isinstance(state, sv.SupportState):
        size = 24 * len(state.index) + 16 * len(state.zeros)
    else:
        size = 16 * len(state.amps)
    return size + _LIST_ENTRY_BYTES * (len(shot.trace) + len(shot.timeline)
                                       + len(shot.draws))


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
    def __init__(self, program, config):
        self.program = program
        self.config = config
        self.timing = config.timing or _UNTIMED
        # The RNG-free prefix runs without an RNG; `finish` seeds each shot's.
        self.seed = self.rng = None
        self.error = None   # the shot error that stopped the shot, if any
        self.steps = 0
        self.trace = []
        self.timeline = []
        self.clock = 0.0
        self.fidelity = 1.0
        self.measurements = []
        self.draws = []     # (p1, outcome) of each RNG draw, in order
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
        qubit_decls, qrams, mem_size = [], [], 0
        for stmt in n.walk(self.program.body):
            if isinstance(stmt, n.QubitDecl):
                qubit_decls.append(stmt)
            elif isinstance(stmt, n.MemDecl):
                mem_size = stmt.size
            elif isinstance(stmt, n.QramDecl):
                device = qram.QramDevice(addr_len=stmt.addr_len, word_len=stmt.word_len)
                blocks = ()
                if self.config.backend == "circuit":
                    if stmt.addr_len > qram.MAX_CIRCUIT_ADDR_BITS:
                        raise ResourceError(
                            f"qram {stmt.name!r}: circuit backend supports at most "
                            f"{qram.MAX_CIRCUIT_ADDR_BITS} address bits, got {stmt.addr_len}")
                    blocks = (("memory", device.num_cells),
                              ("routers", device.num_addresses - 1),
                              ("channels", stmt.addr_len))
                qrams.append((stmt.name, device, blocks))

        # every size is summed before any per-qubit list is built
        total = sum(d.size for d in qubit_decls) + mem_size \
            + sum(count for _, _, blocks in qrams for _, count in blocks)
        if total == 0:
            raise ArgumentError("program declares no qubits")
        if total > sv.DEFAULT_MAX_QUBITS:
            raise ResourceError(
                f"program needs {total} qubits; budget is {sv.DEFAULT_MAX_QUBITS}")

        cursor = 0
        labels = []
        for stmt in qubit_decls:
            self.qregs[stmt.name] = list(range(cursor, cursor + stmt.size))
            labels += [f"{stmt.name}[{i}]" for i in range(stmt.size)]
            cursor += stmt.size

        if mem_size:
            cells = tuple(range(cursor, cursor + mem_size))
            labels += [f"mem[{i}]" for i in range(mem_size)]
            cursor += mem_size
            self.mem = self._raqm(cells, [])

        for name, device, blocks in qrams:
            layout = None
            if blocks:
                spans = {}
                for kind, count in blocks:
                    spans[kind] = tuple(range(cursor, cursor + count))
                    labels += [f"{name}.{kind}[{i}]" for i in range(count)]
                    cursor += count
                layout = qram.CircuitLayout(addr=(), bus=(), **spans)
                device.memory_qubits = spans["memory"]
            self.qrams[name] = _QramBinding(device, layout)
        self.state = sv.zero_state(cursor, labels)

    def _raqm(self, cells, status) -> memdev.RaqmDevice:
        """A RAQM device on these cell qubits with these cell statuses (all
        reset if empty), timed and with the store policy as this shot's."""
        return memdev.RaqmDevice(cell_qubits=cells, cell_status=status,
                                 timing=self.timing.raqm,
                                 store_policy=self.config.store_policy)

    # -- execution ----------------------------------------------------------

    def _copy(self) -> "_Interpreter":
        """A copy of this shot that owns what result() changes or hands out
        and shares everything else with it."""
        other = object.__new__(_Interpreter)
        other.__dict__.update(self.__dict__)
        other.state = self.state.copy()
        other.trace = list(self.trace)
        other.timeline = list(self.timeline)
        other.measurements = [dict(m) for m in self.measurements]
        other.warnings = list(self.warnings)
        other.cell_busy_since = dict(self.cell_busy_since)
        other.cell_busy_total = dict(self.cell_busy_total)
        return other

    def fork(self, config=None) -> "_Interpreter":
        """A copy of this shot so far, run under `config` (by default this
        shot's). It shares only what no shot changes with this one: the
        program, the config, the qubit registers and the QRAM layouts."""
        other = self._copy()
        other.config = config = config or self.config
        other.timing = config.timing or _UNTIMED
        other.draws = list(self.draws)
        other.ints = dict(self.ints)
        other.bits = {name: list(reg) for name, reg in self.bits.items()}
        other.gate_defs = dict(self.gate_defs)
        if self.mem is not None:
            other.mem = other._raqm(self.mem.cell_qubits, list(self.mem.cell_status))
        other.qrams = {}
        for name, binding in self.qrams.items():
            device = binding.device
            data = device.classical_data
            other.qrams[name] = _QramBinding(qram.QramDevice(
                device.addr_len, device.word_len, None if data is None else list(data),
                device.memory_qubits), binding.layout)
        return other

    def finish(self, seed, stmts, paths=None) -> RunResult:
        """Seed the shot's RNG, run the rest of the shot and return its result,
        after adding the finished shot to `paths` (an _OutcomePaths) if given."""
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.run(stmts)
        if paths is not None:
            paths.add(self)
        return self.result()

    def replay(self, seed) -> RunResult:
        """The result of the shot with this seed, given that its draws follow
        the outcome path of this finished shot; this shot is left as it is."""
        shot = self._copy()
        shot.seed = seed
        return shot.result()

    def run(self, stmts):
        """Execute top-level statements, unless a shot error stopped the shot."""
        if self.error is not None:
            return
        try:
            self._exec_block(stmts)
        except QmemError as exc:
            self.error = f"{type(exc).__name__}: {exc}"

    def result(self) -> RunResult:
        status = "ok" if self.error is None else "error"
        if self.mem and self.mem.timing and self.mem.timing.t_storage:
            for cell in list(self.cell_busy_since):  # released cells are popped
                self._cell_release(cell)
            for cell, total in self.cell_busy_total.items():
                self.fidelity *= math.exp(-total / self.mem.timing.t_storage)
        final = self.state
        if isinstance(final, sv.SupportState):
            final = final.to_dense()
        dump_args = None
        if self.mem:
            cells = self._raqm(self.mem.cell_qubits, list(self.mem.cell_status))
            dump_args = (cells, final)
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
            final_state=final,
            timeline=self.timeline,
            fidelity_estimate=self.fidelity if self.config.timing else None,
            shot_log=[shot_entry],
            warnings=self.warnings,
            trace=self.trace,
            num_qubits=final.num_qubits,
            _dump_args=dump_args,
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
            init = stmt.init or ()
            self.bits[stmt.name] = [int(b) for b in init] + [0] * (stmt.size - len(init))
            return
        if isinstance(stmt, n.IntDecl):
            self.ints[stmt.name] = self._int(stmt.init) if stmt.init else 0
            return
        if isinstance(stmt, n.GateDef):
            self.gate_defs[stmt.name] = stmt
            return
        if isinstance(stmt, n.Assign):
            self.ints[stmt.name] = self._int(stmt.expr)
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
            start = self._int(stmt.start)
            end = self._int(stmt.end)
            for value in range(start, end + 1):  # inclusive range
                self._step(stmt)
                self.ints[stmt.var] = value
                self._exec_block(stmt.body)
            return
        if isinstance(stmt, n.GateCall):
            gates = []
            self._gates(stmt, gates)
            for g in gates:
                self._emit(g)
            return
        if isinstance(stmt, n.Measure):
            self._measure(stmt)
            return
        if isinstance(stmt, n.ResetStmt):
            for q in self._resolve_qubits(stmt.qarg):
                self._reset(q)
                self._tick("reset", self.timing.gate_time)
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
            idx = self._int(expr.index, env)
            if not 0 <= idx < len(reg):
                raise ShotError(f"index {idx} out of range for {expr.name} at {expr.pos}")
            return reg[idx]
        if isinstance(expr, n.UnaryOp):
            return -self._eval(expr.operand, env)
        if isinstance(expr, n.BinOp):
            left = self._eval(expr.left, env)
            right = self._eval(expr.right, env)
            op = expr.op
            if op in ("/", "%") and right == 0:
                raise ShotError(f"division by zero at {expr.pos}")
            if op != "**" and op not in _BINARY:
                raise ShotError(f"cannot evaluate expression {expr!r}")
            try:
                value = _power(left, right, expr.pos) if op == "**" \
                    else _BINARY[op](left, right)
            except OverflowError:  # a float result, or an int too large for one
                raise ShotError(f"numeric overflow at {expr.pos}") from None
            if isinstance(value, int) and value.bit_length() > _MAX_INT_BITS:
                raise ShotError(f"integer too large at {expr.pos}")
            return value
        raise ShotError(f"cannot evaluate expression {expr!r}")

    def _int(self, expr, env=None) -> int:
        value = self._eval(expr, env)
        try:
            return int(value)
        except (OverflowError, ValueError):  # an infinity or a NaN
            raise ShotError(f"{value} is not a finite number at {expr.pos}") from None

    # -- registers -----------------------------------------------------------

    def _select(self, arg: n.QArg, reg, kind) -> slice:
        """The part of `reg` that `r`, `r[i]` or `r[a:b]` selects."""
        if reg is None:
            raise ShotError(f"undeclared {kind} register {arg.name!r} at {arg.pos}")
        if arg.index is not None:
            idx = self._int(arg.index)
            if not 0 <= idx < len(reg):
                raise ShotError(f"index {idx} out of range for {arg.name} at {arg.pos}")
            return slice(idx, idx + 1)
        if arg.slice is not None:
            start = self._int(arg.slice[0])
            end = len(reg) - 1 if arg.slice[1] is None else self._int(arg.slice[1])
            if not (0 <= start <= end < len(reg)):
                raise ShotError(f"slice [{start}:{end}] out of range for {arg.name}")
            return slice(start, end + 1)
        return slice(None)

    def _resolve_qubits(self, arg: n.QArg) -> list[int]:
        reg = self.qregs.get(arg.name)
        return reg[self._select(arg, reg, "qubit")]

    # -- unitaries ------------------------------------------------------------

    def _apply(self, g: sv.GateSpec):
        # `held` follows every operation that can grow a support state: gates
        # here, then measure, reset, ld/st, qinit and circuit qld below.
        self.state = sv.held(sv.apply_gate(self.state, g))
        self.trace.append(("gate", g))

    def _tick(self, label, duration, fidelity=1.0):
        if self.config.timing is None:
            return
        self.timeline.append((self.clock, label, duration))
        self.clock += duration
        self.fidelity *= fidelity

    def _emit(self, g: sv.GateSpec):
        self._apply(g)
        self._tick(f"gate:{g.kind}", self.timing.gate_time, self.timing.gate_fidelity)

    def _gates(self, stmt: n.GateCall, out, extra_controls=(), env=None, mapping=None):
        """Append the GateSpecs of a gate call to `out`, broadcast over register
        arguments and with user gates expanded, each checked as apply_gate
        checks it, so a call that fails leaves the state untouched. Inside a
        gate body, `mapping` binds the gate's argument names to qubits."""
        params = [self._eval(p, env) for p in stmt.params]
        if mapping is None:
            arg_qubits = [self._resolve_qubits(a) for a in stmt.args]
        else:
            arg_qubits = [[mapping[a.name]] for a in stmt.args]
        width = max(len(a) for a in arg_qubits)
        for a in arg_qubits:
            if len(a) not in (1, width):
                raise ShotError(f"broadcast width mismatch at {stmt.pos}")
        kind = _BUILTIN_KINDS.get(stmt.name)
        gd = self.gate_defs.get(stmt.name)
        if kind is None and gd is None:
            raise ShotError(f"unknown gate {stmt.name!r} at {stmt.pos}")
        angles = _angles(params, stmt.pos) if kind == "u" else ()
        for i in range(width):
            chosen = [a[i] if len(a) > 1 else a[0] for a in arg_qubits]
            controls = tuple(extra_controls) + tuple(chosen[:stmt.nctrl])
            targets = chosen[stmt.nctrl:]
            if kind is None:
                if len(params) != len(gd.params) or len(targets) != len(gd.args):
                    raise ShotError(f"gate {gd.name!r} called with wrong arity")
                local = dict(zip(gd.params, params))
                bound = dict(zip(gd.args, targets))
                for body_stmt in gd.body:
                    if isinstance(body_stmt, n.AngleDecl):
                        local[body_stmt.name] = self._eval(body_stmt.expr, local)
                    elif isinstance(body_stmt, n.GateCall):
                        self._gates(body_stmt, out, controls, local, bound)
                    else:
                        raise ShotError(f"bad statement in gate body of {gd.name!r}")
                continue
            g = sv.gate(kind, targets, angles, controls)
            sv._plan(self.state.num_qubits, g.targets, g.controls, g.control_values)
            if len(targets) != BUILTIN_GATES[stmt.name]:
                sv._checked(self.state.num_qubits, g)  # raises the width error
            out.append(g)

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
                outcome, prob, p1 = sv._measure(self.state, q, self.rng)
                self.draws.append((p1, outcome))
            else:
                prob, _ = sv.postselect_qubit(self.state, q, forced)
                outcome = forced
            self.state = sv.held(self.state)
            self.bits[reg][idx] = outcome
            self.measurements.append(
                {"bit": f"{reg}[{idx}]", "outcome": outcome, "probability": prob,
                 "forced": forced is not None})
            self.trace.append(("measure", q, outcome, prob, forced is not None))
            self._tick(f"measure:{reg}[{idx}]", self.timing.measure_time)

    def _reset(self, q):
        """Measure-and-reset one qubit to |0>, recorded as a measurement and,
        if the outcome was 1, an X."""
        outcome, p1 = sv._reset(self.state, q, self.rng)
        self.draws.append((p1, outcome))
        self.state = sv.held(self.state)
        self.trace.append(("measure", q, outcome, None, False))
        if outcome:
            self.trace.append(("gate", sv.gate("x", (q,))))

    # -- memory primitives -------------------------------------------------------

    def _raqm_duration(self):
        return self.timing.raqm.t_rw if self.timing.raqm else self.timing.gate_time

    def _cell_occupy(self, addr):
        if self.config.timing:
            self.cell_busy_since[addr] = self.clock

    def _cell_release(self, addr):
        if addr in self.cell_busy_since:  # only a timed run records occupancy
            start = self.cell_busy_since.pop(addr)
            self.cell_busy_total[addr] = self.cell_busy_total.get(addr, 0.0) \
                + (self.clock - start)

    def _load_store(self, qarg, addr_expr, store):
        qubits = self._resolve_qubits(qarg)
        base = self._int(addr_expr)
        check = self.mem.check_store if store else self.mem.check_addr
        for addr in range(base, base + len(qubits)):  # the whole span, first
            check(addr)
        fid = self.timing.raqm_fidelity
        for addr, q in enumerate(qubits, base):
            if store:
                memdev.raqm_store(self.mem, self.state, addr, q)
            else:
                self._cell_release(addr)  # occupancy ends when the load begins
                memdev.raqm_load(self.mem, self.state, addr, q)
            self.state = sv.held(self.state)
            # the device op applied one SWAP; mirror it into the trace
            self.trace.append(("gate", sv.gate("swap", (q, self.mem.cell_qubits[addr]))))
            self._tick("st" if store else "ld", self._raqm_duration(), fid)
            if store:
                self._cell_occupy(addr)  # occupancy starts once the store completes

    def _mreset(self, stmt):
        addr = None if stmt.addr is None else self._int(stmt.addr)
        for a in memdev.reset_addresses(self.mem, addr):
            self._reset(self.mem.cell_qubits[a])
            self.mem.cell_status[a] = memdev.RESET
            self._cell_release(a)
            self._tick("mreset", self._raqm_duration())

    # -- QRAM primitives ---------------------------------------------------------

    def _qinit(self, stmt):
        binding = self.qrams[stmt.name]
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
        self.state = sv.held(self.state)
        self.trace.extend(("gate", g) for g in qram.qinit_gates(binding.device))
        self._tick(f"qinit:{stmt.name}", self.timing.gate_time)

    def _qload(self, stmt):
        binding = self.qrams[stmt.name]
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
            self.state = sv.held(self.state)
            self.trace.extend(("gate", g) for g in program)
        self._tick(f"qld:{stmt.name}", device.addr_len * self.timing.qram_stage_time)


# The kernel gate kind of each built-in gate.
_BUILTIN_KINDS = {"h": "h", "x": "x", "cx": "cnot", "U": "u"}

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "%": operator.mod, "==": operator.eq,
           "!=": operator.ne, "<": operator.lt, ">": operator.gt,
           "<=": operator.le, ">=": operator.ge}

# An integer result of more bits than this stops the shot: repeated `*` or
# one `**` would otherwise take unbounded time and memory.
_MAX_INT_BITS = 1 << 16


def _power(base, exponent, pos):
    """`base ** exponent` if it is real, else a ShotError (a float overflow
    is left to the caller). An integer power is only computed if it has at
    most twice _MAX_INT_BITS bits; the caller checks the exact size."""
    if isinstance(base, int) and isinstance(exponent, int) and exponent > 0 \
            and exponent * (abs(base).bit_length() - 1) > _MAX_INT_BITS:
        raise ShotError(f"integer too large at {pos}")
    try:
        value = base ** exponent
    except ZeroDivisionError:
        raise ShotError(f"division by zero at {pos}") from None
    if isinstance(value, complex):
        raise ShotError(f"power with a complex result at {pos}")
    return value


def _angles(params, pos) -> tuple[float, ...]:
    """`U` parameters as floats; a count other than three, or one that is not
    a finite float (an overflow, an infinity or a NaN), stops the shot before
    the gate touches the state."""
    if len(params) != 3:
        raise ShotError(f"U takes 3 parameters, got {len(params)} at {pos}")
    try:
        angles = tuple(float(p) for p in params)
    except OverflowError:
        angles = (math.inf,)
    if not all(math.isfinite(a) for a in angles):
        raise ShotError(f"U parameter is not a finite number at {pos}")
    return angles


# Statements that draw from the shot's RNG.
_RNG_STATEMENTS = (n.Measure, n.ResetStmt, n.MResetStmt)


def _rng_free_prefix(body) -> int:
    """Number of leading statements with no RNG-drawing statement inside them."""
    for i, stmt in enumerate(body):
        if any(isinstance(s, _RNG_STATEMENTS) for s in n.walk([stmt])):
            return i
    return len(body)

