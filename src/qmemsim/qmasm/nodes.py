"""AST node types for the extended-QASM subset.

The AST is immutable: every node is a frozen dataclass and every sequence in
it a tuple, so a parsed program can be run again without being checked again
(interpreter.iter_shots keeps what it needs on the Program).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Pos:
    line: int
    col: int

    def __str__(self):
        return f"line {self.line}, col {self.col}"


# --- expressions -----------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: object  # int | float
    pos: Pos | None = None


@dataclass(frozen=True)
class Pi:
    pos: Pos | None = None


@dataclass(frozen=True)
class Name:
    id: str
    pos: Pos | None = None


@dataclass(frozen=True)
class Index:
    name: str
    index: object  # expression
    pos: Pos | None = None


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / % ** == != < > <= >=
    left: object
    right: object
    pos: Pos | None = None


@dataclass(frozen=True)
class UnaryOp:
    op: str  # -
    operand: object
    pos: Pos | None = None


# --- quantum argument: register, element, or slice --------------------------

@dataclass(frozen=True)
class QArg:
    """`q`, `q[i]`, `q[a:b]` (inclusive), or `q[a:]` (to the end)."""

    name: str
    index: object | None = None       # expression
    slice: tuple | None = None        # (start_expr, end_expr | None)
    pos: Pos | None = None


# --- statements --------------------------------------------------------------

@dataclass(frozen=True)
class QubitDecl:
    name: str
    size: int
    pos: Pos | None = None


@dataclass(frozen=True)
class BitDecl:
    name: str
    size: int
    init: tuple | None = None
    pos: Pos | None = None


@dataclass(frozen=True)
class IntDecl:
    name: str
    init: object | None = None
    pos: Pos | None = None


@dataclass(frozen=True)
class AngleDecl:
    name: str
    expr: object = None
    pos: Pos | None = None


@dataclass(frozen=True)
class GateDef:
    name: str
    params: tuple
    args: tuple
    body: tuple
    pos: Pos | None = None


@dataclass(frozen=True)
class GateCall:
    name: str
    params: tuple          # expressions
    args: tuple            # QArgs
    nctrl: int = 0         # number of `ctrl @` modifiers
    pos: Pos | None = None


@dataclass(frozen=True)
class Measure:
    qarg: QArg
    carg: QArg
    pos: Pos | None = None


@dataclass(frozen=True)
class ResetStmt:
    qarg: QArg
    pos: Pos | None = None


@dataclass(frozen=True)
class If:
    cond: object
    then: tuple
    orelse: tuple = ()
    pos: Pos | None = None


@dataclass(frozen=True)
class For:
    var: str
    start: object
    end: object
    body: tuple = ()
    pos: Pos | None = None


@dataclass(frozen=True)
class While:
    cond: object
    body: tuple = ()
    pos: Pos | None = None


@dataclass(frozen=True)
class Assign:
    name: str
    expr: object = None
    pos: Pos | None = None


# --- memory and QRAM primitives ---------------------------------------------

@dataclass(frozen=True)
class MemDecl:
    size: int
    pos: Pos | None = None


@dataclass(frozen=True)
class Load:
    qarg: QArg
    addr: object
    pos: Pos | None = None


@dataclass(frozen=True)
class Store:
    addr: object
    qarg: QArg = None
    pos: Pos | None = None


@dataclass(frozen=True)
class MResetStmt:
    addr: object | None = None
    pos: Pos | None = None


@dataclass(frozen=True)
class QramDecl:
    name: str
    addr_len: int = 1
    word_len: int = 1
    pos: Pos | None = None


@dataclass(frozen=True)
class QInit:
    name: str
    source: object = None  # Name or tuple[int, ...] literal
    pos: Pos | None = None


@dataclass(frozen=True)
class QLoad:
    name: str
    bus: QArg = None
    addr: QArg = None
    alias: bool = False    # spelled with the `ldqram` alias
    pos: Pos | None = None


@dataclass(frozen=True)
class Program:
    body: tuple
    warnings: tuple = ()
    # what running the program needs and does not depend on a shot's seed,
    # kept by interpreter.iter_shots (see there)
    _compiled: object = field(default=None, init=False, repr=False, compare=False)


def walk(stmts):
    """Every statement in `stmts` and in its if/for/while bodies, pre-order.

    Gate bodies are not entered: their statements run per call, with the
    call's arguments.
    """
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, If):
            yield from walk(stmt.then)
            yield from walk(stmt.orelse)
        elif isinstance(stmt, (For, While)):
            yield from walk(stmt.body)
