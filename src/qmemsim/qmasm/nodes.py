"""AST node types for the extended-QASM subset."""

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

@dataclass
class QubitDecl:
    name: str
    size: int
    pos: Pos | None = None


@dataclass
class BitDecl:
    name: str
    size: int
    init: list | None = None
    pos: Pos | None = None


@dataclass
class IntDecl:
    name: str
    init: object | None = None
    pos: Pos | None = None


@dataclass
class AngleDecl:
    name: str
    expr: object = None
    pos: Pos | None = None


@dataclass
class GateDef:
    name: str
    params: list
    args: list
    body: list
    pos: Pos | None = None


@dataclass
class GateCall:
    name: str
    params: list           # expressions
    args: list             # QArgs
    nctrl: int = 0         # number of `ctrl @` modifiers
    pos: Pos | None = None


@dataclass
class Measure:
    qarg: QArg
    carg: QArg
    pos: Pos | None = None


@dataclass
class ResetStmt:
    qarg: QArg
    pos: Pos | None = None


@dataclass
class If:
    cond: object
    then: list
    orelse: list = field(default_factory=list)
    pos: Pos | None = None


@dataclass
class For:
    var: str
    start: object
    end: object
    body: list = field(default_factory=list)
    pos: Pos | None = None


@dataclass
class While:
    cond: object
    body: list = field(default_factory=list)
    pos: Pos | None = None


@dataclass
class Assign:
    name: str
    expr: object = None
    pos: Pos | None = None


# --- memory and QRAM primitives ---------------------------------------------

@dataclass
class MemDecl:
    size: int
    pos: Pos | None = None


@dataclass
class Load:
    qarg: QArg
    addr: object
    pos: Pos | None = None


@dataclass
class Store:
    addr: object
    qarg: QArg = None
    pos: Pos | None = None


@dataclass
class MResetStmt:
    addr: object | None = None
    pos: Pos | None = None


@dataclass
class QramDecl:
    name: str
    addr_len: int = 1
    word_len: int = 1
    pos: Pos | None = None


@dataclass
class QInit:
    name: str
    source: object = None  # Name or list[int] literal
    pos: Pos | None = None


@dataclass
class QLoad:
    name: str
    bus: QArg = None
    addr: QArg = None
    alias: bool = False    # spelled with the `ldqram` alias
    pos: Pos | None = None


@dataclass
class Program:
    body: list
    warnings: list = field(default_factory=list)


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
