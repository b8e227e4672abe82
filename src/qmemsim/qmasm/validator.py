"""Static checks over a parsed program. Collects diagnostics, never mutates."""

from __future__ import annotations

from dataclasses import dataclass

from . import nodes as n

BUILTIN_GATES = {"h": 1, "x": 1, "cx": 2, "U": 1}

# The largest bit register a program may declare; a shot holds each register
# as a list, so an unbounded size would exhaust memory before the shot ran.
MAX_BIT_REGISTER = 1 << 20


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    pos: n.Pos | None = None

    def __str__(self):
        where = f" ({self.pos})" if self.pos else ""
        return f"{self.severity}: {self.message}{where}"


class _Scope:
    def __init__(self):
        self.qubits = {}   # name -> size
        self.bits = {}     # name -> size
        self.ints = set()
        self.gates = dict(BUILTIN_GATES)   # name -> arity (None = user def)
        self.gate_defs = {}
        self.qrams = {}    # name -> (addr_len, word_len)
        self.mem_size = None
        self.mem_seen = False
        self.mem_used_before_decl = False


def validate(program: n.Program) -> list[Diagnostic]:
    """All static diagnostics for the program, errors and warnings."""
    out = [Diagnostic("warning", w) for w in program.warnings]
    scope = _Scope()
    _walk(program.body, scope, out)
    return out


def has_errors(diagnostics) -> bool:
    return any(d.severity == "error" for d in diagnostics)


def _err(out, pos, message):
    out.append(Diagnostic("error", message, pos))


def _static_int(expr):
    """Value of a constant integer expression, else None."""
    if isinstance(expr, n.Num) and isinstance(expr.value, int):
        return expr.value
    if isinstance(expr, n.UnaryOp) and expr.op == "-":
        inner = _static_int(expr.operand)
        return None if inner is None else -inner
    if isinstance(expr, n.BinOp):
        left, right = _static_int(expr.left), _static_int(expr.right)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
    return None


def _walk(stmts, scope, out, in_loop_vars=()):
    for stmt in stmts:
        _check_stmt(stmt, scope, out, in_loop_vars)


def _check_stmt(stmt, scope, out, loop_vars):
    if isinstance(stmt, n.QubitDecl):
        if stmt.name in scope.qubits or stmt.name in scope.bits:
            _err(out, stmt.pos, f"register {stmt.name!r} already declared")
        scope.qubits[stmt.name] = stmt.size
    elif isinstance(stmt, n.BitDecl):
        if stmt.name in scope.qubits or stmt.name in scope.bits:
            _err(out, stmt.pos, f"register {stmt.name!r} already declared")
        scope.bits[stmt.name] = stmt.size
        if stmt.size > MAX_BIT_REGISTER:
            _err(out, stmt.pos, f"bit[{stmt.size}] {stmt.name} exceeds the "
                                f"{MAX_BIT_REGISTER}-bit register limit")
        if stmt.init is not None and len(stmt.init) > stmt.size:
            _err(out, stmt.pos,
                 f"{len(stmt.init)}-element literal exceeds bit[{stmt.size}]")
    elif isinstance(stmt, n.IntDecl):
        scope.ints.add(stmt.name)
        if stmt.init is not None:
            _check_classical_expr(stmt.init, scope, out, loop_vars)
    elif isinstance(stmt, n.GateDef):
        if stmt.name in scope.gates:
            _err(out, stmt.pos, f"gate {stmt.name!r} already defined")
        scope.gates[stmt.name] = len(stmt.args)
        scope.gate_defs[stmt.name] = stmt
        _check_gate_def(stmt, scope, out)
    elif isinstance(stmt, n.MemDecl):
        if scope.mem_seen:
            _err(out, stmt.pos, "mem declared more than once")
        if scope.mem_used_before_decl:
            _err(out, stmt.pos, "mem must be declared before any ld/st/mreset")
        scope.mem_seen = True
        scope.mem_size = stmt.size
        if stmt.size < 1:
            _err(out, stmt.pos, "mem size must be >= 1")
    elif isinstance(stmt, n.QramDecl):
        if stmt.name in scope.qrams:
            _err(out, stmt.pos, f"qram {stmt.name!r} already declared")
        if stmt.addr_len < 1 or stmt.word_len < 1:
            _err(out, stmt.pos, "qram address and word lengths must be >= 1")
        scope.qrams[stmt.name] = (stmt.addr_len, stmt.word_len)
    elif isinstance(stmt, n.QInit):
        shape = scope.qrams.get(stmt.name)
        if shape is None:
            _err(out, stmt.pos, f"qinit of undeclared qram {stmt.name!r}")
            return
        expected = (1 << shape[0]) * shape[1]
        if isinstance(stmt.source, n.Name):
            size = scope.bits.get(stmt.source.id)
            if size is None:
                _err(out, stmt.pos,
                     f"qinit data register {stmt.source.id!r} not declared")
            elif size != expected:
                _err(out, stmt.pos,
                     f"qinit data length {size} != expected {expected}")
        else:
            if len(stmt.source) != expected:
                _err(out, stmt.pos,
                     f"qinit literal length {len(stmt.source)} != expected {expected}")
    elif isinstance(stmt, n.QLoad):
        shape = scope.qrams.get(stmt.name)
        if shape is None:
            _err(out, stmt.pos, f"qld of undeclared qram {stmt.name!r}")
            return
        addr_len, word_len = shape
        bus_width = _qarg_width(stmt.bus, scope, out, loop_vars, quantum=True)
        addr_width = _qarg_width(stmt.addr, scope, out, loop_vars, quantum=True)
        if bus_width is not None and bus_width != word_len:
            _err(out, stmt.pos,
                 f"qld bus width {bus_width} != word length {word_len}")
        if addr_width is not None and addr_width != addr_len:
            _err(out, stmt.pos,
                 f"qld address width {addr_width} != address length {addr_len}")
    elif isinstance(stmt, (n.Load, n.Store)):
        scope.mem_used_before_decl |= not scope.mem_seen
        if not scope.mem_seen:
            _err(out, stmt.pos, "ld/st before mem declaration")
            return
        width = _qarg_width(stmt.qarg, scope, out, loop_vars, quantum=True)
        addr = _static_int(stmt.addr)
        _check_classical_expr(stmt.addr, scope, out, loop_vars)
        if addr is not None and width is not None:
            if addr < 0 or addr + width > scope.mem_size:
                _err(out, stmt.pos,
                     f"memory span [{addr}, {addr + width}) exceeds size {scope.mem_size}")
    elif isinstance(stmt, n.MResetStmt):
        scope.mem_used_before_decl |= not scope.mem_seen
        if not scope.mem_seen:
            _err(out, stmt.pos, "mreset before mem declaration")
            return
        if stmt.addr is not None:
            _check_classical_expr(stmt.addr, scope, out, loop_vars)
            addr = _static_int(stmt.addr)
            if addr is not None and not 0 <= addr < scope.mem_size:
                _err(out, stmt.pos, f"mreset address {addr} out of range")
    elif isinstance(stmt, n.GateCall):
        _check_gate_call(stmt, scope, out, loop_vars)
    elif isinstance(stmt, n.Measure):
        _qarg_width(stmt.qarg, scope, out, loop_vars, quantum=True)
        _qarg_width(stmt.carg, scope, out, loop_vars, quantum=False)
    elif isinstance(stmt, n.ResetStmt):
        _qarg_width(stmt.qarg, scope, out, loop_vars, quantum=True)
    elif isinstance(stmt, n.Assign):
        if stmt.name not in scope.ints and stmt.name not in loop_vars:
            _err(out, stmt.pos, f"assignment to undeclared int {stmt.name!r}")
        _check_classical_expr(stmt.expr, scope, out, loop_vars)
    elif isinstance(stmt, n.If):
        _check_classical_expr(stmt.cond, scope, out, loop_vars)
        _walk(stmt.then, scope, out, loop_vars)
        _walk(stmt.orelse, scope, out, loop_vars)
    elif isinstance(stmt, n.While):
        _check_classical_expr(stmt.cond, scope, out, loop_vars)
        _walk(stmt.body, scope, out, loop_vars)
    elif isinstance(stmt, n.For):
        _check_classical_expr(stmt.start, scope, out, loop_vars)
        _check_classical_expr(stmt.end, scope, out, loop_vars)
        _walk(stmt.body, scope, out, loop_vars + (stmt.var,))
    elif isinstance(stmt, n.AngleDecl):
        _err(out, stmt.pos, "angle declarations are only allowed in gate bodies")
    else:
        _err(out, stmt.pos, f"unhandled statement {type(stmt).__name__}")


def _check_gate_def(gd, scope, out):
    local = set(gd.params) | set(gd.args)
    for stmt in gd.body:
        if isinstance(stmt, n.AngleDecl):
            local.add(stmt.name)
            _check_gate_expr(stmt.expr, local, out)
        elif isinstance(stmt, n.GateCall):
            if stmt.name != "U" and stmt.name not in scope.gates:
                _err(out, stmt.pos, f"unknown gate {stmt.name!r} in body of {gd.name!r}")
            for p in stmt.params:
                _check_gate_expr(p, local, out)
            for arg in stmt.args:
                if arg.index is not None or arg.slice is not None:
                    _err(out, arg.pos, "gate-body arguments cannot be indexed")
                elif arg.name not in gd.args:
                    _err(out, arg.pos,
                         f"{arg.name!r} is not an argument of gate {gd.name!r}")


def _check_gate_expr(expr, local, out):
    for name in _names_in(expr):
        if name not in local:
            _err(out, getattr(expr, "pos", None),
                 f"unknown name {name!r} in gate expression")


def _names_in(expr):
    if isinstance(expr, n.Name):
        yield expr.id
    elif isinstance(expr, n.Index):
        yield expr.name
        yield from _names_in(expr.index)
    elif isinstance(expr, n.BinOp):
        yield from _names_in(expr.left)
        yield from _names_in(expr.right)
    elif isinstance(expr, n.UnaryOp):
        yield from _names_in(expr.operand)


def _check_gate_call(stmt, scope, out, loop_vars):
    if stmt.name not in scope.gates:
        _err(out, stmt.pos, f"unknown gate {stmt.name!r}")
        return
    arity = scope.gates[stmt.name]
    if stmt.name == "U" and len(stmt.params) != 3:
        _err(out, stmt.pos, "U takes exactly three angle parameters")
    expected = arity + stmt.nctrl
    if len(stmt.args) != expected:
        _err(out, stmt.pos,
             f"gate {stmt.name!r} expects {expected} argument(s), got {len(stmt.args)}")
    for p in stmt.params:
        _check_classical_expr(p, scope, out, loop_vars)
    widths = set()
    for arg in stmt.args:
        w = _qarg_width(arg, scope, out, loop_vars, quantum=True)
        if w is not None:
            widths.add(w)
    if len(widths - {1}) > 1:
        _err(out, stmt.pos, "broadcast requires equal register widths (or width 1)")


def _check_classical_expr(expr, scope, out, loop_vars):
    for name in _names_in(expr):
        if name in scope.ints or name in loop_vars or name in scope.bits:
            continue
        if name in scope.qubits:
            _err(out, getattr(expr, "pos", None),
                 f"qubit register {name!r} used in a classical expression")
        else:
            _err(out, getattr(expr, "pos", None),
                 f"unknown name {name!r} in classical expression")


def _qarg_width(arg, scope, out, loop_vars, quantum):
    table = scope.qubits if quantum else scope.bits
    other = scope.bits if quantum else scope.qubits
    size = table.get(arg.name)
    if size is None:
        what = "qubit" if quantum else "bit"
        if arg.name in other:
            _err(out, arg.pos, f"{arg.name!r} is not a {what} register")
        else:
            _err(out, arg.pos, f"undeclared {what} register {arg.name!r}")
        return None
    if arg.index is not None:
        _check_classical_expr(arg.index, scope, out, loop_vars)
        idx = _static_int(arg.index)
        if idx is not None and not 0 <= idx < size:
            _err(out, arg.pos, f"index {idx} out of range for {arg.name}[{size}]")
        return 1
    if arg.slice is not None:
        start_e, end_e = arg.slice
        _check_classical_expr(start_e, scope, out, loop_vars)
        start = _static_int(start_e)
        if end_e is None:
            end = size - 1
        else:
            _check_classical_expr(end_e, scope, out, loop_vars)
            end = _static_int(end_e)
        if start is not None and end is not None:
            if not (0 <= start <= end < size):
                _err(out, arg.pos,
                     f"slice [{start}:{end}] out of range for {arg.name}[{size}]")
                return None
            return end - start + 1
        return None
    return size
