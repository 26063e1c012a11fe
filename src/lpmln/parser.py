"""Parser for the weighted-rule input language, evidence files, and query
predicate lists.

Grammar (also reproduced in the README):

    program  := {rule}
    rule     := [weight] (head)? (":-" body)? "."
    weight   := decimal | "@log(" posnum ["/" posnum] ")"
    head     := atom {";" atom} | "{" atom "}"
    body     := element {"," element}
    element  := ["not" ["not"]] atom | term "!=" term
    atom     := ident ["(" term {"," term} ")"]
    term     := ident | variable | integer | quoted

The lexical grammar is the table ``_LEXEME``.  Identifiers and numerals
are ASCII: an identifier is lowercase-first, a variable uppercase-first,
and a numeral is decimal digits 0-9 that must be followed by a space or
punctuation (there is no exponent notation).  Any other character outside
a quoted constant or a comment, a non-ASCII digit included, is an
unexpected character.  Comments run from '%' to end of line.  Input is
UTF-8 text.

A token is a light record, ``_Token``: a named tuple of its kind, text,
line and column.  Its ``SourceSpan`` is made only when something reads
it, an error or a test.  A parse makes one ``Term`` per spelling, kept
on its ``_Parser``: two occurrences of one spelling in one parse are one
object, and separate parses share none.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from .model import HARD, Atom, Inequality, Literal, Program, Rule, Term, soft


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    length: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class LpmlnSyntaxError(ValueError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


class _Token(NamedTuple):
    """One lexeme and where it starts.  ``span`` is made only when read:
    by an error, or a test."""

    kind: str  # NUM IDENT VAR QUOTED PUNCT EOF
    text: str
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.column, len(self.text))


# The lexical grammar, ASCII only: one alternative per lexeme, tried in
# order at each position; the last takes any other character, an error.
# A numeral glued to a letter or "_" ("1e16", "2a") matches with a
# ``glued`` group, and a word that starts with "_" as ``underscore``: both
# are errors.
_LEXEME = re.compile(r"""
    (?P<space>[ \t\r]+)
  | (?P<comment>%[^\n]*)
  | (?P<newline>\n)
  | (?P<QUOTED>"[^"\n]*")
  | (?P<NUM>-?[0-9]+(?:\.[0-9]+)?)(?P<glued>[A-Za-z_])?
  | (?P<IDENT>[a-z][A-Za-z0-9_]*)
  | (?P<VAR>[A-Z][A-Za-z0-9_]*)
  | (?P<PUNCT>:-|!=|::|[(){};,./@])
  | (?P<underscore>_[A-Za-z0-9_]*)
  | (?P<other>.)
""", re.VERBOSE)
_KINDS = frozenset(("QUOTED", "NUM", "IDENT", "VAR", "PUNCT"))


def _tokenize(text: str) -> list[_Token]:
    """The tokens of ``text``, then an EOF token.  A column counts
    characters from the start of its line; the end of input after a
    comment is at its '%'."""
    toks: list[_Token] = []
    append = toks.append
    line, start, comment = 1, 0, -1  # start: where the line starts
    for m in _LEXEME.finditer(text):
        kind = m.lastgroup
        if kind in _KINDS:
            append(_Token(kind, m.group(), line, m.start() - start + 1))
        elif kind == "newline":
            line, start = line + 1, m.end()
        elif kind == "comment":
            comment = m.start()
        elif kind != "space":
            at = m.start()
            if kind == "glued":
                at += len(m["NUM"])
                message = f"a numeral must be followed by a space or punctuation, found {m[kind]!r}"
            elif kind == "underscore":
                message = "identifiers must start with a letter"
            elif m.group() == '"':
                message = "unterminated quoted constant"
            else:
                message = f"unexpected character {m.group()!r}"
            length = len(m.group()) if kind == "underscore" else 1
            raise LpmlnSyntaxError(message, SourceSpan(line, at - start + 1, length))
    append(_Token("EOF", "", line, (comment if comment >= start else len(text)) - start + 1))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.toks.append(self.toks[-1])  # a second EOF: peek(1) at EOF reads EOF
        self.pos = 0
        self.terms: dict[str, Term] = {}  # one Term per spelling

    # -- token helpers

    def peek(self, ahead: int = 0) -> _Token:
        return self.toks[self.pos + ahead]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.next()
        if t.text != text:
            raise LpmlnSyntaxError(f"expected {text!r}, found {t.text or 'end of input'!r}", t.span)
        return t

    def at(self, text: str) -> bool:
        return self.toks[self.pos].text == text

    # -- grammar

    def parse_rules(self, allow_weights: bool = True, allow_problog: bool = False) -> list[Rule]:
        rules = []
        while self.peek().kind != "EOF":
            rules.append(self.rule(len(rules) + 1, allow_weights, allow_problog))
        return rules

    def rule(self, index: int, allow_weights: bool, allow_problog: bool) -> Rule:
        weight = HARD
        t = self.peek()
        if t.kind == "NUM" and allow_problog and self.peek(1).text == "::":
            # ProbLog probabilistic fact: p::atom.
            self.next()
            self.next()
            p = self._num_value(t)
            if not 0.0 < p < 1.0:
                raise LpmlnSyntaxError("probabilistic fact needs 0 < p < 1", t.span)
            head = self.atom()
            self.expect(".")
            return Rule(index, soft(math.log(p / (1.0 - p))), (head,))
        if t.kind == "NUM" and self.peek(1).text != "(":
            # A leading numeric literal followed by anything but '(' is a weight.
            self.next()
            self._reject_weight(t, allow_weights)
            weight = soft(self._num_value(t))
        elif t.text == "@":
            self.next()
            weight = soft(self._log_weight(t, allow_weights))

        head: tuple[Atom, ...] = ()
        is_choice = False
        if self.at("{"):
            self.next()
            head = (self.atom(),)
            self.expect("}")
            is_choice = True
        elif not self.at(":-") and not self.at("."):
            disj = [self.atom()]
            while self.at(";"):
                self.next()
                disj.append(self.atom())
            head = tuple(disj)

        body: tuple = ()
        if self.at(":-"):
            self.next()
            elems = [self.body_element()]
            while self.at(","):
                self.next()
                elems.append(self.body_element())
            body = tuple(elems)

        if not head and not body:
            raise LpmlnSyntaxError("empty rule", self.peek().span)
        self.expect(".")
        return Rule(index, weight, head, body, is_choice)

    def _reject_weight(self, t: _Token, allow_weights: bool) -> None:
        if not allow_weights:
            raise LpmlnSyntaxError("weighted rules are not allowed in evidence files", t.span)

    def _num_value(self, t: _Token) -> float:
        return float(t.text)

    def _log_weight(self, at_tok: _Token, allow_weights: bool) -> float:
        name = self.next()
        if name.text != "log":
            raise LpmlnSyntaxError("expected 'log' after '@'", name.span)
        self._reject_weight(at_tok, allow_weights)
        self.expect("(")
        a = self.next()
        if a.kind != "NUM":
            raise LpmlnSyntaxError("@log expects a number", a.span)
        value = self._num_value(a)
        if self.at("/"):
            self.next()
            b = self.next()
            if b.kind != "NUM":
                raise LpmlnSyntaxError("@log expects a number after '/'", b.span)
            bv = self._num_value(b)
            if bv <= 0.0:
                raise LpmlnSyntaxError("@log denominator must be positive", b.span)
            value /= bv
        self.expect(")")
        if value <= 0.0:
            raise LpmlnSyntaxError("@log of a non-positive value", a.span)
        return math.log(value)

    def atom(self) -> Atom:
        t = self.next()
        if t.kind != "IDENT":
            raise LpmlnSyntaxError(f"expected a predicate name, found {t.text or 'end of input'!r}", t.span)
        args: tuple[Term, ...] = ()
        if self.at("("):
            self.next()
            terms = [self.term()]
            while self.at(","):
                self.next()
                terms.append(self.term())
            self.expect(")")
            args = tuple(terms)
        return Atom(t.text, args)

    def term(self) -> Term:
        t = self.next()
        if t.kind in ("IDENT", "VAR", "QUOTED") or (t.kind == "NUM" and "." not in t.text):
            term = self.terms.get(t.text)
            if term is None:
                term = self.terms[t.text] = Term(t.text)
            return term
        raise LpmlnSyntaxError(f"expected a term, found {t.text or 'end of input'!r}", t.span)

    def body_element(self):
        t = self.peek()
        if t.kind == "IDENT" and t.text == "not":
            self.next()
            negation = 1
            if self.peek().kind == "IDENT" and self.peek().text == "not":
                self.next()
                negation = 2
            return Literal(self.atom(), negation)
        if t.kind == "IDENT" and self.peek(1).text not in ("!=",):
            return Literal(self.atom(), 0)
        # term != term  (also covers identifiers on the left)
        lhs = self.term()
        self.expect("!=")
        rhs = self.term()
        return Inequality(lhs, rhs)


def parse_program(text: str) -> Program:
    """Parse program text: soft rules carry a leading decimal weight or a
    ``@log(e)`` expression; unweighted rules are hard."""
    return Program(tuple(_Parser(text).parse_rules()))


def parse_evidence(text: str) -> Program:
    """Parse an evidence file: the program grammar restricted to unweighted
    rules.  All returned rules are hard."""
    return Program(tuple(_Parser(text).parse_rules(allow_weights=False)))


def parse_query_spec(text: str) -> tuple[str, ...]:
    """Parse a comma-separated predicate-name list; matching downstream is
    by name only, at any arity."""
    names = []
    column = 1  # where the current piece starts
    for piece in text.split(","):
        name = piece.strip()
        if not name:
            raise LpmlnSyntaxError("empty predicate name", SourceSpan(1, column, 1))
        if name not in names:
            names.append(name)
        column += len(piece) + 1
    return tuple(names)


def pretty_program(program: Program) -> str:
    """Render a program so that re-parsing yields a structurally identical
    value (weights survive the round trip exactly)."""
    return str(program)
