"""Core abstract syntax for weighted answer set programs.

A program is a sequence of rules, each carrying a real-valued soft weight
or the hard marker.  Everything here is immutable; the grounder, engine,
and backends all consume these values and never mutate them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from numbers import Real
from typing import Union


@dataclass(frozen=True, order=True)
class Term:
    """Constant symbol, integer constant, or variable.

    The kind is determined by spelling: variables start with an uppercase
    letter, integers are decimal, everything else (lowercase identifiers
    and double-quoted strings) is a constant symbol.
    """

    name: str
    _hash = None  # not a field: the cached hash, in the instance once computed

    def __hash__(self) -> int:
        # the dataclass's value, computed once, as Atom's
        h = self._hash
        if h is None:
            h = self.__dict__["_hash"] = hash((self.name,))
        return h

    def __getstate__(self) -> dict:
        # as for Atom: no salted hash may travel
        return {"name": self.name}

    @property
    def is_variable(self) -> bool:
        return self.name[:1].isupper()

    @property
    def is_constant(self) -> bool:
        return not self.is_variable

    def __str__(self) -> str:
        return self.name


def var(name: str) -> Term:
    t = Term(name)
    if not t.is_variable:
        raise ValueError(f"not a variable name: {name!r}")
    return t


def const(name: str) -> Term:
    t = Term(str(name))
    if t.is_variable:
        raise ValueError(f"not a constant name: {name!r}")
    return t


@dataclass(frozen=True, order=True)
class Atom:
    predicate: str
    args: tuple[Term, ...] = ()
    _hash = None  # not a field: the cached hash, in the instance once computed

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def schema(self) -> tuple[str, int]:
        """Predicate/arity pair; the same name at two arities is two schemas."""
        return (self.predicate, len(self.args))

    @property
    def is_ground(self) -> bool:
        return all(not t.is_variable for t in self.args)

    def __hash__(self) -> int:
        # the value the dataclass would compute, so set and dict order stay
        # put; computed once, since atoms key every bitset index.  Until
        # then ``_hash`` reads the class's None: no AttributeError is raised
        h = self._hash
        if h is None:
            h = self.__dict__["_hash"] = hash((self.predicate, self.args))
        return h

    def __getstate__(self) -> dict:
        # string hashes are salted per process: no cache may travel
        return {"predicate": self.predicate, "args": self.args}

    def __str__(self) -> str:
        # rendered once: an emitted translation repeats each ground atom
        text = getattr(self, "_text", None)
        if text is None:
            text = self.__dict__["_text"] = _atom_text(self.predicate,
                                                       [t.name for t in self.args])
        return text


def _atom_text(predicate: str, names: Sequence[str], negation: int = 0) -> str:
    """The text of the atom ``predicate(names...)`` under ``negation``
    ``not``s: the one owner of the atom and literal syntax, for pooled atoms
    and for texts made straight from universe names alike."""
    return "not " * negation + (f"{predicate}({','.join(names)})" if names else predicate)


def atom(predicate: str, *args: Union[Term, str, int]) -> Atom:
    """Convenience constructor: strings become terms by spelling."""
    return Atom(predicate, tuple(a if isinstance(a, Term) else Term(str(a)) for a in args))


@dataclass(frozen=True, order=True)
class Literal:
    """Atom under 0, 1, or 2 negations ('a', 'not a', 'not not a')."""

    atom: Atom
    negation: int = 0

    def __post_init__(self) -> None:
        if self.negation not in (0, 1, 2):
            raise ValueError(f"negation depth must be 0, 1, or 2: {self.negation}")

    def __getstate__(self) -> dict:
        # as for Atom: the cached text stays out of pickles and copies
        return {"atom": self.atom, "negation": self.negation}

    def __str__(self) -> str:
        # rendered once, like Atom
        text = getattr(self, "_text", None)
        if text is None:
            a = self.atom
            text = self.__dict__["_text"] = _atom_text(a.predicate, [t.name for t in a.args],
                                                       self.negation)
        return text


@dataclass(frozen=True, order=True)
class Inequality:
    """The built-in body condition ``t1 != t2``, resolved at grounding."""

    lhs: Term
    rhs: Term

    def __str__(self) -> str:
        return f"{self.lhs} != {self.rhs}"


BodyElement = Union[Literal, Inequality]


@dataclass(frozen=True, order=True)
class Weight:
    """Soft real weight, kept as a float, or ``None`` for the hard (infinite)
    marker."""

    value: float | None = None

    @property
    def is_hard(self) -> bool:
        return self.value is None

    @property
    def is_soft(self) -> bool:
        return self.value is not None

    def __post_init__(self) -> None:
        if self.value is None:
            return
        if isinstance(self.value, bool) or not isinstance(self.value, Real):
            raise ValueError(f"soft weights must be real numbers: {self.value!r}")
        try:
            v = float(self.value)
        except OverflowError:  # an int or a fraction past the float range
            v = math.inf
        if not math.isfinite(v):
            raise ValueError("soft weights must be finite")
        object.__setattr__(self, "value", v)

    def __str__(self) -> str:
        return "alpha" if self.is_hard else repr(self.value)


HARD = Weight(None)


def soft(value: float) -> Weight:
    return Weight(value)


def _log_odds(p: float) -> Weight:
    """The weight ln(p/(1-p)) of a ProbLog fact or Bayes-net parameter, 0 < p < 1."""
    return soft(math.log(p / (1.0 - p)))


@dataclass(frozen=True)
class Rule:
    """One weighted rule: ``weight: h1 ; ... ; hk :- body``.

    An empty head is a constraint.  ``is_choice`` marks a head written as
    ``{a}``; such a head always has exactly one atom.
    """

    index: int
    weight: Weight
    head: tuple[Atom, ...]
    body: tuple[BodyElement, ...] = ()
    is_choice: bool = False

    def __post_init__(self) -> None:
        if self.is_choice and len(self.head) != 1:
            raise ValueError("choice rules have exactly one head atom")

    @property
    def is_constraint(self) -> bool:
        return not self.head

    def variables(self) -> tuple[str, ...]:
        """Global variables in first-occurrence order (head, then body)."""
        seen: dict[str, None] = {}
        for a in self.head:
            for t in a.args:
                if t.is_variable:
                    seen.setdefault(t.name, None)
        for el in self.body:
            terms = el.atom.args if isinstance(el, Literal) else (el.lhs, el.rhs)
            for t in terms:
                if t.is_variable:
                    seen.setdefault(t.name, None)
        return tuple(seen)

    def __str__(self) -> str:
        return format_rule(self)


@dataclass(frozen=True)
class Program:
    rules: tuple[Rule, ...] = ()

    def __post_init__(self) -> None:
        indices = [r.index for r in self.rules]
        if len(set(indices)) != len(indices):
            raise ValueError("rule indices must be unique within a program")

    def __len__(self) -> int:
        return len(self.rules)

    @cached_property
    def signature(self) -> frozenset[tuple[str, int]]:
        sig = set()
        for r in self.rules:
            for a in r.head:
                sig.add(a.schema)
            for el in r.body:
                if isinstance(el, Literal):
                    sig.add(el.atom.schema)
        return frozenset(sig)

    @cached_property
    def universe(self) -> tuple[Term, ...]:
        """All constants occurring in the rules, in sorted order."""
        terms = set()
        for r in self.rules:
            for a in r.head:
                terms.update(a.args)
            for el in r.body:
                terms.update(el.atom.args if isinstance(el, Literal) else (el.lhs, el.rhs))
        return tuple(sorted(t for t in terms if t.is_constant))

    def __str__(self) -> str:
        return "".join(format_rule(r) + "\n" for r in self.rules)


Interpretation = frozenset  # frozenset[Atom]


def atom_sort_key(a: Atom):
    return (a.predicate, len(a.args), tuple(t.name for t in a.args))


def herbrand_base(program: Program) -> tuple[Atom, ...]:
    """All ground atoms formable from the program's predicates and constants.

    Deterministically ordered so callers can enumerate candidates uniformly.
    """
    from itertools import product

    consts = program.universe
    out: list[Atom] = []
    for pred, arity in sorted(program.signature):
        if arity == 0:
            out.append(Atom(pred))
        else:
            for combo in product(consts, repeat=arity):
                out.append(Atom(pred, combo))
    return tuple(sorted(out, key=atom_sort_key))


def desugar_choice(rule: Rule) -> Rule:
    """Rewrite ``{a} :- B`` as ``a :- B, not not a``; other rules unchanged.

    Idempotent, and preserves index and weight.
    """
    if not rule.is_choice:
        return rule
    marker = Literal(rule.head[0], 2)
    return Rule(rule.index, rule.weight, rule.head, rule.body + (marker,), is_choice=False)


def _choice_marker(rule) -> int | None:
    """Position of the literal ``desugar_choice`` adds (the one head atom
    under double negation) in the body of a rule or ground rule, or None."""
    if len(rule.head) != 1:
        return None
    for k, el in enumerate(rule.body):
        if isinstance(el, Literal) and el.negation == 2 and el.atom == rule.head[0]:
            return k
    return None


def desugar_program(program: Program) -> Program:
    return Program(tuple(desugar_choice(r) for r in program.rules))


def merge_programs(main: Program, extra: Program) -> Program:
    """Append ``extra``'s rules after ``main``, renumbering them to continue
    the main program's indices."""
    base = max((r.index for r in main.rules), default=0)
    renumbered = tuple(
        Rule(base + k, r.weight, r.head, r.body, r.is_choice)
        for k, r in enumerate(extra.rules, start=1)
    )
    return Program(main.rules + renumbered)


# --- rendering ----------------------------------------------------------

def format_weight(w: Weight) -> str:
    assert w.is_soft
    text = repr(w.value)
    if "e" not in text:
        return text
    # the grammar has no exponent: write the same decimal out positionally
    from decimal import Decimal
    return format(Decimal(text), "f")


class _Memo(dict):
    """A dict that fills a missing key with ``make(key)``: the rendering
    memos of ``cli`` and ``asp_backend``."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _rule_line(head: Iterable[str], body: Iterable[str]) -> str:
    """The line of an unweighted rule from the texts of its head atoms and
    body elements: ``h1 ; h2 :- b1, b2.``, ``h1.`` or ``:- b1.``."""
    head = " ; ".join(head)
    body = ", ".join(body)
    if not body:
        return head + "."
    return (head + " :- " if head else ":- ") + body + "."


def format_rule(rule: Rule) -> str:
    head = ("{" + str(rule.head[0]) + "}",) if rule.is_choice else map(str, rule.head)
    line = _rule_line(head, map(str, rule.body))
    return format_weight(rule.weight) + " " + line if rule.weight.is_soft else line
