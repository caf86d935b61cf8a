"""Front end for the toy imperative language.

Input grammar (EBNF)::

    program := decl* stmt*
    decl    := "int" ident ("=" expr)? ";"
    stmt    := ident "=" expr ";"
             | "if" "(" cond ")" block ("else" block)?
             | "while" "(" cond ")" block
             | "assert" "(" cond ")" ";"
             | "access" "(" ident ")" ";"
    block   := "{" stmt* "}"
    cond    := expr relop expr | "*"
    expr    := term (("+" | "-") term)*
    term    := ("-")? integer | ident | "*"
    relop   := "<" | "<=" | "==" | "=" | "!=" | ">=" | ">"

Comments start with ``#`` and run to end of line.  Values are mathematical
integers; ``*`` denotes a nondeterministic integer (in expressions) or a
nondeterministic boolean (in conditions).  Variables must be declared before
use.  ``access(b)`` names a memory block, which lives in a separate namespace
from integer variables and needs no declaration.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple


class ParseError(Exception):
    """Syntax or scoping error, carrying 1-based line/column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # "+" or "-"
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Nondet:
    """The `*` wildcard: any integer."""


Expr = Const | Var | BinOp | Nondet


@dataclass(frozen=True)
class Cmp:
    op: str  # one of < <= == != >= >
    left: Expr
    right: Expr


@dataclass(frozen=True)
class CondNondet:
    """The `*` condition: both outcomes feasible."""


Cond = Cmp | CondNondet


@dataclass(frozen=True)
class Assign:
    var: str
    expr: Expr


@dataclass(frozen=True)
class If:
    cond: Cond
    then: tuple["Stmt", ...]
    orelse: tuple["Stmt", ...]


@dataclass(frozen=True)
class While:
    cond: Cond
    body: tuple["Stmt", ...]


@dataclass(frozen=True)
class Assert:
    cond: Cond


@dataclass(frozen=True)
class AccessStmt:
    block: str


Stmt = Assign | If | While | Assert | AccessStmt


@dataclass(frozen=True)
class Decl:
    name: str
    init: Const | None


@dataclass(frozen=True)
class Program:
    decls: tuple[Decl, ...]
    body: tuple[Stmt, ...]

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.decls)


_NEGATED_OP = {"<": ">=", "<=": ">", "==": "!=", "!=": "==", ">=": "<", ">": "<="}
# `a op b` holds iff `b FLIPPED_OP[op] a` does.
FLIPPED_OP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}


def negate_cond(c: Cond) -> Cond:
    """Complement over the integers; the negation of `*` is `*`."""
    if isinstance(c, CondNondet):
        return c
    return Cmp(_NEGATED_OP[c.op], c.left, c.right)


def expr_vars(e: Expr) -> set[str]:
    # The left spine of a sum is walked in a loop, so a long sum does not
    # recurse (as in ``pretty_expr``).
    out: set[str] = set()
    while isinstance(e, BinOp):
        out |= expr_vars(e.right)
        e = e.left
    if isinstance(e, Var):
        out.add(e.name)
    return out


def expr_has_nondet(e: Expr) -> bool:
    while isinstance(e, BinOp):
        if expr_has_nondet(e.right):
            return True
        e = e.left
    return isinstance(e, Nondet)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_KEYWORDS = {"int", "if", "else", "while", "assert", "access"}


class _Token(NamedTuple):
    kind: str  # "int", "ident", "punct", "eof"
    text: str
    line: int
    col: int


# Each match is a run of blanks and then one alternative, tried in this
# order.  Integer literals are ASCII digits only: \d also takes other
# scripts' digits, which int() reads as numbers.  An identifier starts with
# a letter or "_" and goes on with what str.isalnum takes or "_" (which is
# \w); [^\W\d] is the letters plus numeric characters such as "²", so a
# non-ASCII start is checked with str.isalpha.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<newline>\n)|(?P<comment>#[^\n]*)|(?P<int>[0-9]+)"
    r"|(?P<ident>[A-Za-z_]\w*)|(?P<other_ident>[^\W\d]\w*)"
    r"|(?P<punct><=|>=|==|!=|[<>=+\-*(){};])|(?P<bad>.)|\Z)",
    re.DOTALL,
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    end = eof = len(text)
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:  # blanks up to the end
            break
        start = m.start(kind)
        if kind == "newline":
            line += 1
            line_start = start + 1
        elif kind == "comment":
            # A comment does not move the column: when it ends the input,
            # the end-of-input token sits where it starts.
            if m.end() == end:
                eof = start
        else:
            word = m[kind]
            if kind == "other_ident":
                kind = "ident" if word[0].isalpha() else "bad"
            if kind == "bad":
                raise ParseError(f"unexpected character {word[0]!r}", line, start - line_start + 1)
            tokens.append(_Token(kind, word, line, start - line_start + 1))
    tokens.append(_Token("eof", "", line, eof - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.declared: set[str] = set()

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, message: str) -> ParseError:
        t = self.peek()
        shown = t.text if t.kind != "eof" else "end of input"
        return ParseError(f"{message} (at {shown!r})", t.line, t.col)

    def expect(self, text: str) -> _Token:
        t = self.peek()
        if t.kind == "punct" and t.text == text:
            return self.next()
        raise self.fail(f"expected {text!r}")

    def at_punct(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "punct" and t.text == text

    def at_keyword(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text == word

    def ident(self, what: str) -> _Token:
        t = self.peek()
        if t.kind != "ident" or t.text in _KEYWORDS:
            raise self.fail(f"expected {what}")
        return self.next()

    def program(self) -> Program:
        decls = []
        while self.at_keyword("int"):
            decls.append(self.decl())
        body = []
        while self.peek().kind != "eof":
            body.append(self.stmt())
        return Program(tuple(decls), tuple(body))

    def decl(self) -> Decl:
        self.next()  # "int"
        name = self.ident("variable name").text
        if name in self.declared:
            raise self.fail(f"variable {name!r} already declared")
        self.declared.add(name)
        init = None
        if self.at_punct("="):
            self.next()
            t = self.peek()
            e = self.expr()
            if not isinstance(e, Const):
                raise ParseError("declaration initializer must be a constant", t.line, t.col)
            init = e
        self.expect(";")
        return Decl(name, init)

    def block(self) -> tuple[Stmt, ...]:
        self.expect("{")
        stmts = []
        while not self.at_punct("}"):
            if self.peek().kind == "eof":
                raise self.fail("unterminated block")
            stmts.append(self.stmt())
        self.expect("}")
        return tuple(stmts)

    def stmt(self) -> Stmt:
        if self.at_keyword("if"):
            self.next()
            self.expect("(")
            cond = self.cond()
            self.expect(")")
            then = self.block()
            orelse: tuple[Stmt, ...] = ()
            if self.at_keyword("else"):
                self.next()
                orelse = self.block()
            return If(cond, then, orelse)
        if self.at_keyword("while"):
            self.next()
            self.expect("(")
            cond = self.cond()
            self.expect(")")
            return While(cond, self.block())
        if self.at_keyword("assert"):
            t = self.peek()
            self.next()
            self.expect("(")
            cond = self.cond()
            self.expect(")")
            self.expect(";")
            if isinstance(cond, CondNondet):
                raise ParseError("assert condition must not be '*'", t.line, t.col)
            return Assert(cond)
        if self.at_keyword("access"):
            self.next()
            self.expect("(")
            block = self.ident("block name").text
            self.expect(")")
            self.expect(";")
            return AccessStmt(block)
        name_tok = self.ident("statement")
        if name_tok.text not in self.declared:
            raise ParseError(
                f"use of undeclared variable {name_tok.text!r}", name_tok.line, name_tok.col
            )
        self.expect("=")
        e = self.expr()
        self.expect(";")
        return Assign(name_tok.text, e)

    def cond(self) -> Cond:
        if self.at_punct("*") and self._next_is_close_paren():
            self.next()
            return CondNondet()
        left = self.expr()
        t = self.peek()
        if t.kind == "punct" and t.text in ("<", "<=", "==", "=", "!=", ">=", ">"):
            self.next()
            op = "==" if t.text == "=" else t.text
            right = self.expr()
            return Cmp(op, left, right)
        raise self.fail("expected comparison operator")

    def _next_is_close_paren(self) -> bool:
        t = self.tokens[self.pos + 1]
        return t.kind == "punct" and t.text == ")"

    def expr(self) -> Expr:
        e = self.term()
        while self.at_punct("+") or self.at_punct("-"):
            op = self.next().text
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> Expr:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return Const(int(t.text))
        if t.kind == "punct" and t.text == "-":
            nxt = self.tokens[self.pos + 1]
            if nxt.kind == "int":
                self.next()
                self.next()
                return Const(-int(nxt.text))
        if t.kind == "punct" and t.text == "*":
            self.next()
            return Nondet()
        if t.kind == "ident" and t.text not in _KEYWORDS:
            self.next()
            if t.text not in self.declared:
                raise ParseError(f"use of undeclared variable {t.text!r}", t.line, t.col)
            return Var(t.text)
        raise self.fail("expected expression")


def parse_program(text: str) -> Program:
    return _Parser(text).program()


# ---------------------------------------------------------------------------
# Pretty printer (canonical form; reparsing yields a structurally equal AST)
# ---------------------------------------------------------------------------


def pretty_expr(e: Expr) -> str:
    # The grammar has no parentheses; BinOp trees from the parser are
    # left-nested, which f"{left} {op} {right}" reproduces faithfully.  The
    # left spine is walked in a loop, so a long sum does not recurse.
    rights: list[str] = []
    while isinstance(e, BinOp):
        rights.append(f" {e.op} {pretty_expr(e.right)}")
        e = e.left
    if isinstance(e, Const):
        head = str(e.value)
    elif isinstance(e, Var):
        head = e.name
    else:
        head = "*"
    return head + "".join(reversed(rights))


def pretty_cond(c: Cond) -> str:
    if isinstance(c, CondNondet):
        return "*"
    return f"{pretty_expr(c.left)} {c.op} {pretty_expr(c.right)}"


def _pretty_stmt(s: Stmt, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(s, Assign):
        out.append(f"{pad}{s.var} = {pretty_expr(s.expr)};")
    elif isinstance(s, AccessStmt):
        out.append(f"{pad}access({s.block});")
    elif isinstance(s, Assert):
        out.append(f"{pad}assert ({pretty_cond(s.cond)});")
    elif isinstance(s, If):
        out.append(f"{pad}if ({pretty_cond(s.cond)}) {{")
        for sub in s.then:
            _pretty_stmt(sub, indent + 1, out)
        if s.orelse:
            out.append(f"{pad}}} else {{")
            for sub in s.orelse:
                _pretty_stmt(sub, indent + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(s, While):
        out.append(f"{pad}while ({pretty_cond(s.cond)}) {{")
        for sub in s.body:
            _pretty_stmt(sub, indent + 1, out)
        out.append(f"{pad}}}")
    else:
        raise TypeError(f"unknown statement {s!r}")


def pretty(program: Program) -> str:
    out: list[str] = []
    for d in program.decls:
        if d.init is None:
            out.append(f"int {d.name};")
        else:
            out.append(f"int {d.name} = {d.init.value};")
    for s in program.body:
        _pretty_stmt(s, 0, out)
    return "\n".join(out) + ("\n" if out else "")
