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
from integer variables and needs no declaration.  A literal longer than
``sys.get_int_max_str_digits()`` digits, which ``int()`` refuses, is a parse
error.

Tokens are plain texts: one ``findall`` of ``_TOKEN`` lists them, skipping
blanks and comments, and ends with the empty text at the end of the input.
``_kind`` tells a text's kind from the text alone (an ASCII digit starts an
integer, a letter or ``_`` an identifier, and the empty text is the end), so
the parser looks each distinct text up once and compares texts directly.
Lines and columns are computed only when an error is raised: ``_tokenize``
runs the same pattern again and builds the ``_Token`` list with positions.

Records.  The AST nodes, like the labels, bound expressions and results of
other modules, are named tuples made records by ``class_checked``: fields
are read-only, the hash is the field tuple's (as a frozen dataclass's), and
a record equals only a record of its class, so ``Var("x") != BRef("x")`` and
no record equals a plain tuple; one without fields, like ``Nondet()``, is
true.  Intervals, environments and linear forms skip the class check.
"""

from __future__ import annotations

import re
import sys
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

_tuple_eq, _tuple_ne = tuple.__eq__, tuple.__ne__


def class_checked(cls):
    """Make the named tuple class `cls` a record (see the module docstring)."""
    cls.__eq__ = lambda self, other: self.__class__ is other.__class__ and _tuple_eq(self, other)
    cls.__ne__ = lambda self, other: self.__class__ is not other.__class__ or _tuple_ne(self, other)
    cls.__hash__ = tuple.__hash__
    if not cls._fields:
        cls.__bool__ = lambda self: True
    return cls


@class_checked
class Const(NamedTuple):
    value: int


@class_checked
class Var(NamedTuple):
    name: str


@class_checked
class BinOp(NamedTuple):
    op: str  # "+" or "-"
    left: "Expr"
    right: "Expr"


@class_checked
class Nondet(NamedTuple):
    """The `*` wildcard: any integer."""


Expr = Const | Var | BinOp | Nondet


@class_checked
class Cmp(NamedTuple):
    op: str  # one of < <= == != >= >
    left: Expr
    right: Expr


@class_checked
class CondNondet(NamedTuple):
    """The `*` condition: both outcomes feasible."""


Cond = Cmp | CondNondet


@class_checked
class Assign(NamedTuple):
    var: str
    expr: Expr


@class_checked
class If(NamedTuple):
    cond: Cond
    then: tuple["Stmt", ...]
    orelse: tuple["Stmt", ...]


@class_checked
class While(NamedTuple):
    cond: Cond
    body: tuple["Stmt", ...]


@class_checked
class Assert(NamedTuple):
    cond: Cond


@class_checked
class AccessStmt(NamedTuple):
    block: str


Stmt = Assign | If | While | Assert | AccessStmt


@class_checked
class Decl(NamedTuple):
    name: str
    init: Const | None


@class_checked
class Program(NamedTuple):
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


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_KEYWORDS = {"int", "if", "else", "while", "assert", "access"}
_PUNCT = frozenset(("<=", ">=", "==", "!=", *"<>=+-*(){};"))
_RELOPS = frozenset(("<", "<=", "==", "=", "!=", ">=", ">"))


@class_checked
class _Token(NamedTuple):
    kind: str  # "int", "ident", "punct", "eof"
    text: str
    line: int
    col: int


# Each match skips blanks, newlines and comments, then captures one token
# text, trying the alternatives in this order; the empty text is the end of
# the input.  Integer literals are ASCII digits only: \d also takes other
# scripts' digits, which int() reads as numbers.  An identifier starts with
# a letter or "_" and goes on with what str.isalnum takes or "_" (which is
# \w); [^\W\d] is the letters plus numeric characters such as "²", so a
# non-ASCII start is checked with str.isalpha (in `_kind`).
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*([0-9]+|[A-Za-z_]\w*|[^\W\d]\w*|<=|>=|==|!=|[<>=+\-*(){};]|.|\Z)",
    re.DOTALL,
)


def _kind(text: str) -> str:
    """The kind of a token text: "eof", "int", "ident", "punct" or "bad"."""
    if not text:
        return "eof"
    c = text[0]
    if "0" <= c <= "9":
        return "int"
    if c == "_" or c.isalpha():
        return "ident"
    return "punct" if text in _PUNCT else "bad"


def _tokenize(text: str) -> list[_Token]:
    """The tokens of `text` with their positions, up to and including the
    end of input; raises ParseError at the first bad character."""
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        start = m.start(1)
        newlines = text.count("\n", m.start(), start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", 0, start) + 1
        word = m[1]
        if not word:
            break
        kind = _kind(word)
        if kind == "bad":
            raise ParseError(f"unexpected character {word[0]!r}", line, start - line_start + 1)
        tokens.append(_Token(kind, word, line, start - line_start + 1))
    # A comment does not move the column: when one ends the input, the
    # end-of-input token sits where it starts.
    comment = text.find("#", line_start)
    tokens.append(_Token("eof", "", line, (start if comment < 0 else comment) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    """Recursive descent over the token texts; `pos` indexes the next one."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _TOKEN.findall(text)
        self.kinds = {word: _kind(word) for word in set(self.toks)}
        if "bad" in self.kinds.values():
            _tokenize(text)  # raises at the first bad character
        self.pos = 0
        self.declared: set[str] = set()

    def error(self, message: str, pos: int) -> ParseError:
        t = _tokenize(self.text)[pos]
        return ParseError(message, t.line, t.col)

    def fail(self, message: str) -> ParseError:
        shown = self.toks[self.pos] or "end of input"
        return self.error(f"{message} (at {shown!r})", self.pos)

    def expect(self, text: str) -> None:
        if self.toks[self.pos] != text:
            raise self.fail(f"expected {text!r}")
        self.pos += 1

    def ident(self, what: str) -> str:
        t = self.toks[self.pos]
        if self.kinds[t] != "ident" or t in _KEYWORDS:
            raise self.fail(f"expected {what}")
        self.pos += 1
        return t

    def program(self) -> Program:
        toks = self.toks
        decls = []
        while toks[self.pos] == "int":
            decls.append(self.decl())
        body = []
        while toks[self.pos]:
            body.append(self.stmt())
        return Program(tuple(decls), tuple(body))

    def decl(self) -> Decl:
        self.pos += 1  # "int"
        name = self.ident("variable name")
        if name in self.declared:
            raise self.fail(f"variable {name!r} already declared")
        self.declared.add(name)
        init = None
        if self.toks[self.pos] == "=":
            self.pos += 1
            pos = self.pos
            e = self.expr()
            if not isinstance(e, Const):
                raise self.error("declaration initializer must be a constant", pos)
            init = e
        self.expect(";")
        return Decl(name, init)

    def block(self) -> tuple[Stmt, ...]:
        self.expect("{")
        toks = self.toks
        stmts = []
        while toks[self.pos] != "}":
            if not toks[self.pos]:
                raise self.fail("unterminated block")
            stmts.append(self.stmt())
        self.pos += 1
        return tuple(stmts)

    def stmt(self) -> Stmt:
        pos = self.pos
        t = self.toks[pos]
        if t in self.declared:  # an assignment; no keyword is ever declared
            self.pos += 1
            self.expect("=")
            e = self.expr()
            self.expect(";")
            return Assign(t, e)
        if t in ("if", "while", "assert"):
            self.pos += 1
            self.expect("(")
            cond = self.cond()
            self.expect(")")
            if t == "while":
                return While(cond, self.block())
            if t == "if":
                then = self.block()
                if self.toks[self.pos] != "else":
                    return If(cond, then, ())
                self.pos += 1
                return If(cond, then, self.block())
            self.expect(";")
            if isinstance(cond, CondNondet):
                raise self.error("assert condition must not be '*'", pos)
            return Assert(cond)
        if t == "access":
            self.pos += 1
            self.expect("(")
            block = self.ident("block name")
            self.expect(")")
            self.expect(";")
            return AccessStmt(block)
        name = self.ident("statement")
        raise self.error(f"use of undeclared variable {name!r}", pos)

    def cond(self) -> Cond:
        toks = self.toks
        if toks[self.pos] == "*" and toks[self.pos + 1] == ")":
            self.pos += 1
            return CondNondet()
        left = self.expr()
        op = toks[self.pos]
        if op not in _RELOPS:
            raise self.fail("expected comparison operator")
        self.pos += 1
        return Cmp("==" if op == "=" else op, left, self.expr())

    def expr(self) -> Expr:
        e = self.term()
        toks = self.toks
        while (op := toks[self.pos]) in ("+", "-"):
            self.pos += 1
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> Expr:
        toks, pos = self.toks, self.pos
        t = toks[pos]
        if t in self.declared:
            self.pos = pos + 1
            return Var(t)
        kind = self.kinds[t]
        negative = t == "-" and self.kinds[toks[pos + 1]] == "int"
        if kind == "int" or negative:
            pos += negative
            try:
                value = int(toks[pos])
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise self.error(f"integer literal longer than {sys.get_int_max_str_digits()} digits", pos)
            self.pos = pos + 1
            return Const(-value if negative else value)
        if t == "*":
            self.pos = pos + 1
            return Nondet()
        if kind == "ident" and t not in _KEYWORDS:
            raise self.error(f"use of undeclared variable {t!r}", pos)
        raise self.fail("expected expression")


def parse_program(text: str) -> Program:
    return _Parser(text).program()


# ---------------------------------------------------------------------------
# Expressions and conditions as source text (error messages quote them)
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
