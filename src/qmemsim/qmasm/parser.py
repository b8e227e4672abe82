"""Hand-written lexer and recursive-descent parser for the extended-QASM subset.

Accepted surface: the OPENQASM 3 header; qubit/bit/int/angle declarations with
bit-array literals; gate definitions built from U and `ctrl @`; the builtins
h, x, cx, U, measure ->, reset; if/else, inclusive `for i in [a:b]`, while;
integer/angle arithmetic with comparisons; register slices; and the memory
primitives mem/ld/st/mreset plus qram/qinit/qld (with the `ldqram` alias).
Anything else is rejected with a feature-name diagnostic.
"""

from __future__ import annotations

from ..errors import ParseError
from . import nodes as n

KEYWORDS = {
    "OPENQASM", "qubit", "bit", "int", "angle", "gate", "measure", "reset",
    "if", "else", "for", "while", "in", "pi", "ctrl",
    "mem", "ld", "st", "mreset", "qram", "qinit", "qld", "ldqram",
}

# recognized-but-unsupported OpenQASM 3 surface, rejected by name
UNSUPPORTED = {
    "def": "subroutines", "defcal": "pulse grammar", "cal": "pulse grammar",
    "array": "classical arrays beyond bit registers", "include": "include files",
    "input": "I/O modifiers", "output": "I/O modifiers", "const": "const declarations",
    "float": "float declarations", "duration": "timing types", "stretch": "timing types",
    "box": "box scoping", "barrier": "barriers", "extern": "extern declarations",
    "switch": "switch statements", "return": "subroutines",
    "negctrl": "negative-control modifier", "pow": "gate power modifier",
    "inv": "gate inverse modifier", "gphase": "global phase statement",
}

TWO_CHAR = {"->", "==", "!=", "<=", ">=", "**"}
SINGLE = set("[](){};,=<>+-*/%^:@")


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def tokenize(source: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    size = len(source)
    while i < size:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < size and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise ParseError("unterminated block comment", line, col)
            skipped = source[i:end + 2]
            line += skipped.count("\n")
            col = 1 if "\n" in skipped else col + len(skipped)
            i = end + 2
            continue
        if source.startswith('"', i):
            end = source.find('"', i + 1)
            if end < 0:
                raise ParseError("unterminated string", line, col)
            tokens.append(Token("STRING", source[i + 1:end], line, col))
            col += end + 1 - i
            i = end + 1
            continue
        two = source[i:i + 2]
        if two in TWO_CHAR:
            tokens.append(Token(two, two, line, col))
            i += 2
            col += 2
            continue
        if ch.isdigit() or (ch == "." and i + 1 < size and source[i + 1].isdigit()):
            j = i
            seen_dot = seen_exp = False
            while j < size:
                c = source[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp and j + 1 < size and \
                        (source[j + 1].isdigit() or source[j + 1] in "+-"):
                    seen_exp = True
                    j += 2 if source[j + 1] in "+-" else 1
                else:
                    break
            text = source[i:j]
            kind = "FLOAT" if (seen_dot or seen_exp) else "INT"
            tokens.append(Token(kind, text, line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < size and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = text if text in KEYWORDS else "ID"
            tokens.append(Token(kind, text, line, col))
            col += j - i
            i = j
            continue
        if ch in SINGLE:
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        self.warnings: list[str] = []

    # -- token helpers --------------------------------------------------

    def peek(self, offset=0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def accept(self, kind) -> Token | None:
        if self.peek().kind == kind:
            return self.next()
        return None

    def expect(self, kind, what=None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {what or kind}, found {tok.text!r}", tok.line, tok.col)
        return self.next()

    def comma_list(self, close, item) -> list:
        """`item()` results separated by commas up to the `close` token; the
        opening token has been consumed. A trailing comma is accepted."""
        values = []
        while not self.accept(close):
            values.append(item())
            if not self.accept(","):
                self.expect(close)
                break
        return values

    def enclosed(self, opening, closing):
        """An expression between the `opening` and `closing` tokens."""
        self.expect(opening)
        expr = self.expression()
        self.expect(closing)
        return expr

    def here(self) -> n.Pos:
        tok = self.peek()
        return n.Pos(tok.line, tok.col)

    def fail_unsupported(self, tok):
        feature = UNSUPPORTED.get(tok.text)
        if feature:
            raise ParseError(f"unsupported OpenQASM 3 feature: {feature}",
                             tok.line, tok.col)
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)

    # -- program ----------------------------------------------------------

    def parse(self) -> n.Program:
        self.expect("OPENQASM", "OPENQASM header")
        version = self.next()
        if version.kind not in ("INT", "FLOAT") or not version.text.startswith("3"):
            raise ParseError("only OPENQASM 3 is supported",
                             version.line, version.col)
        self.expect(";")
        body = []
        while self.peek().kind != "EOF":
            body.append(self.statement())
        return n.Program(body, self.warnings)

    def block_or_single(self) -> list:
        if self.accept("{"):
            stmts = []
            while not self.accept("}"):
                if self.peek().kind == "EOF":
                    raise ParseError("unterminated block", self.peek().line,
                                     self.peek().col)
                stmts.append(self.statement())
            return stmts
        return [self.statement()]

    # -- statements -------------------------------------------------------

    def statement(self):
        tok = self.peek()
        kind = tok.kind
        if kind in ("qubit", "bit"):
            return self.register_decl()
        if kind == "int":
            return self.int_decl()
        if kind == "angle":
            return self.angle_decl()
        if kind == "gate":
            return self.gate_def()
        if kind == "measure":
            return self.measure_stmt()
        if kind == "reset":
            pos = self.here()
            self.next()
            qarg = self.qarg()
            self.expect(";")
            return n.ResetStmt(qarg, pos=pos)
        if kind == "if":
            return self.if_stmt()
        if kind == "for":
            return self.for_stmt()
        if kind == "while":
            return self.while_stmt()
        if kind == "mem":
            pos = self.here()
            self.next()
            size = self.expect("INT", "memory size")
            self.expect(";")
            return n.MemDecl(int(size.text), pos=pos)
        if kind == "ld":
            return self.load_stmt()
        if kind == "st":
            return self.store_stmt()
        if kind == "mreset":
            pos = self.here()
            self.next()
            addr = None if self.peek().kind == ";" else self.expression()
            self.expect(";")
            return n.MResetStmt(addr, pos=pos)
        if kind == "qram":
            return self.qram_decl()
        if kind == "qinit":
            return self.qinit_stmt()
        if kind == "qld":
            return self.qld_stmt()
        if kind == "ldqram":
            return self.ldqram_stmt()
        if kind == "ctrl":
            return self.gate_call()
        if kind == "ID":
            if tok.text in UNSUPPORTED:
                self.fail_unsupported(tok)
            if self.peek(1).kind == "=" :
                pos = self.here()
                name = self.next().text
                self.next()
                expr = self.expression()
                self.expect(";")
                return n.Assign(name, expr, pos=pos)
            return self.gate_call()
        self.fail_unsupported(tok)

    def register_decl(self):
        pos = self.here()
        what = self.next().kind  # qubit | bit
        size = 1
        if self.accept("["):
            size = int(self.expect("INT", "register size").text)
            self.expect("]")
        name = self.expect("ID", "register name").text
        init = None
        if self.accept("="):
            if what != "bit":
                raise ParseError("only bit registers take initializers",
                                 pos.line, pos.col)
            init = self.bit_array_literal()
            if len(init) < size:
                self.warnings.append(
                    f"line {pos.line}: {len(init)}-element literal assigned to "
                    f"bit[{size}] {name}; zero-padded on the right")
                init = init + [0] * (size - len(init))
        self.expect(";")
        if what == "qubit":
            return n.QubitDecl(name, size, pos=pos)
        return n.BitDecl(name, size, init, pos=pos)

    def bit_array_literal(self) -> list:
        self.expect("[", "bit-array literal")
        return self.bit_values()

    def bit_values(self) -> list:
        return self.comma_list("]", lambda: int(self.expect("INT", "bit literal").text))

    def int_decl(self):
        pos = self.here()
        self.next()
        name = self.expect("ID", "variable name").text
        init = None
        if self.accept("="):
            init = self.expression()
        self.expect(";")
        return n.IntDecl(name, init, pos=pos)

    def angle_decl(self):
        pos = self.here()
        self.next()
        name = self.expect("ID", "angle name").text
        self.expect("=")
        expr = self.expression()
        self.expect(";")
        return n.AngleDecl(name, expr, pos=pos)

    def gate_def(self):
        pos = self.here()
        self.next()
        name = self.expect("ID", "gate name").text
        params = []
        if self.accept("("):
            params = self.comma_list(")", lambda: self.expect("ID", "parameter name").text)
        args = [self.expect("ID", "gate argument").text]
        while self.accept(","):
            args.append(self.expect("ID", "gate argument").text)
        self.expect("{")
        body = []
        while not self.accept("}"):
            tok = self.peek()
            if tok.kind == "angle":
                body.append(self.angle_decl())
            elif tok.kind in ("ID", "ctrl"):
                body.append(self.gate_call())
            else:
                self.fail_unsupported(tok)
        return n.GateDef(name, params, args, body, pos=pos)

    def gate_call(self):
        pos = self.here()
        nctrl = 0
        while self.accept("ctrl"):
            self.expect("@")
            nctrl += 1
        name = self.expect("ID", "gate name").text
        params = self.comma_list(")", self.expression) if self.accept("(") else []
        args = [self.qarg()]
        # gate arguments may be comma- or space-separated
        while True:
            if self.accept(","):
                args.append(self.qarg())
            elif self.peek().kind == "ID":
                args.append(self.qarg())
            else:
                break
        self.expect(";")
        return n.GateCall(name, params, args, nctrl=nctrl, pos=pos)

    def measure_stmt(self):
        pos = self.here()
        self.next()
        qarg = self.qarg()
        self.expect("->")
        carg = self.qarg()
        self.expect(";")
        return n.Measure(qarg, carg, pos=pos)

    def if_stmt(self):
        pos = self.here()
        self.next()
        cond = self.enclosed("(", ")")
        then = self.block_or_single()
        orelse = []
        if self.accept("else"):
            orelse = self.block_or_single()
        return n.If(cond, then, orelse, pos=pos)

    def for_stmt(self):
        pos = self.here()
        self.next()
        var = self.expect("ID", "loop variable").text
        self.expect("in")
        self.expect("[")
        start = self.expression()
        self.expect(":")
        end = self.expression()
        self.expect("]")
        body = self.block_or_single()
        return n.For(var, start, end, body, pos=pos)

    def while_stmt(self):
        pos = self.here()
        self.next()
        cond = self.enclosed("(", ")")
        body = self.block_or_single()
        return n.While(cond, body, pos=pos)

    def load_stmt(self):
        pos = self.here()
        self.next()
        qarg = self.qarg()
        self.expect("=")
        addr = self.enclosed("[", "]")
        self.expect(";")
        return n.Load(qarg, addr, pos=pos)

    def store_stmt(self):
        pos = self.here()
        self.next()
        addr = self.enclosed("[", "]")
        self.expect("=")
        qarg = self.qarg()
        self.expect(";")
        return n.Store(addr, qarg, pos=pos)

    def qram_decl(self):
        pos = self.here()
        self.next()
        name = self.expect("ID", "qram name").text
        self.expect("[")
        addr_len = int(self.expect("INT", "address length").text)
        self.expect(",")
        word_len = int(self.expect("INT", "word length").text)
        self.expect("]")
        self.expect(";")
        return n.QramDecl(name, addr_len, word_len, pos=pos)

    def qinit_stmt(self):
        pos = self.here()
        self.next()
        name = self.expect("ID", "qram name").text
        self.expect("[", "classical data")
        if self.peek().kind == "ID":
            source = n.Name(self.next().text, pos=pos)
            self.expect("]")
        else:
            source = self.bit_values()
        self.expect(";")
        return n.QInit(name, source, pos=pos)

    def qld_stmt(self):
        pos = self.here()
        self.next()
        name = self.expect("ID", "qram name").text
        self.expect("(")
        bus = self.qarg()
        self.expect(")")
        self.expect("[")
        addr = self.qarg()
        self.expect("]")
        self.expect(";")
        return n.QLoad(name, bus, addr, alias=False, pos=pos)

    def ldqram_stmt(self):
        pos = self.here()
        self.next()
        name = self.expect("ID", "qram name").text
        addr = self.qarg()
        bus = self.qarg()
        self.expect(";")
        self.warnings.append(
            f"line {pos.line}: `ldqram {name} ...` is an alias; "
            f"canonical spelling is `qld {name}(bus)[addr]`")
        return n.QLoad(name, bus, addr, alias=True, pos=pos)

    def qarg(self) -> n.QArg:
        pos = self.here()
        name = self.expect("ID", "register name").text
        if not self.accept("["):
            return n.QArg(name, pos=pos)
        start = self.expression()
        if self.accept(":"):
            if self.peek().kind == "]":
                self.expect("]")
                return n.QArg(name, slice=(start, None), pos=pos)
            end = self.expression()
            self.expect("]")
            return n.QArg(name, slice=(start, end), pos=pos)
        self.expect("]")
        return n.QArg(name, index=start, pos=pos)

    # -- expressions ------------------------------------------------------

    def expression(self):
        return self.comparison()

    def comparison(self):
        left = self.additive()
        tok = self.peek()
        if tok.kind in ("==", "!=", "<", ">", "<=", ">="):
            self.next()
            right = self.additive()
            return n.BinOp(tok.kind, left, right, pos=n.Pos(tok.line, tok.col))
        return left

    def additive(self):
        return self.left_assoc(("+", "-"), self.multiplicative)

    def multiplicative(self):
        return self.left_assoc(("*", "/", "%"), self.power)

    def left_assoc(self, ops, operand):
        """`operand (op operand)*` for the binary operators `ops`, grouped left."""
        left = operand()
        while self.peek().kind in ops:
            tok = self.next()
            right = operand()
            left = n.BinOp(tok.kind, left, right, pos=n.Pos(tok.line, tok.col))
        return left

    def power(self):
        base = self.unary()
        tok = self.peek()
        if tok.kind in ("**", "^"):
            self.next()
            exponent = self.power()  # right associative
            return n.BinOp("**", base, exponent, pos=n.Pos(tok.line, tok.col))
        return base

    def unary(self):
        tok = self.peek()
        if tok.kind in ("-", "+"):
            self.next()
            operand = self.unary()
            if tok.kind == "-":
                return n.UnaryOp("-", operand, pos=n.Pos(tok.line, tok.col))
            return operand
        return self.atom()

    def atom(self):
        tok = self.next()
        pos = n.Pos(tok.line, tok.col)
        if tok.kind == "INT":
            return n.Num(int(tok.text), pos=pos)
        if tok.kind == "FLOAT":
            return n.Num(float(tok.text), pos=pos)
        if tok.kind == "pi":
            return n.Pi(pos=pos)
        if tok.kind == "(":
            expr = self.expression()
            self.expect(")")
            return expr
        if tok.kind == "ID":
            if self.accept("["):
                index = self.expression()
                self.expect("]")
                return n.Index(tok.text, index, pos=pos)
            return n.Name(tok.text, pos=pos)
        raise ParseError(f"expected expression, found {tok.text!r}",
                         tok.line, tok.col)


def parse_program(source: str) -> n.Program:
    """Parse extended-QASM source into an AST."""
    return Parser(source).parse()
