"""Naive grounder: substitute universe constants for global variables.

Choice rules are desugared before grounding, inequalities are evaluated
and removed, and the output order is deterministic (source rule index,
then lexicographic substitution).  Determinism matters more than speed at
the scales this package targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .model import (
    Atom, Inequality, Literal, Program, Rule, Term, Weight,
    atom_sort_key, desugar_program,
)

DEFAULT_GROUND_CAP = 2 ** 22


class GroundingError(ValueError):
    pass


class UnsafeRuleError(GroundingError):
    def __init__(self, rule_index: int, variable: str):
        super().__init__(f"rule {rule_index} is unsafe: variable {variable} "
                         "does not occur in a positive body literal")
        self.rule_index = rule_index
        self.variable = variable


class EmptyUniverseError(GroundingError):
    def __init__(self, rule_index: int):
        super().__init__(f"rule {rule_index} has variables but the universe is empty")
        self.rule_index = rule_index


class GroundingCapError(GroundingError):
    def __init__(self, cap: int):
        super().__init__(f"grounding exceeds the cap of {cap} rules")
        self.cap = cap


@dataclass(frozen=True)
class GroundRule:
    """A fully ground rule instance.

    ``subst`` holds the constants substituted for the source rule's global
    variables, in first-occurrence order; it is empty when the source rule
    was already ground.
    """

    origin_index: int
    weight: Weight
    head: tuple[Atom, ...]
    body: tuple[Literal, ...]
    subst: tuple[Term, ...] = ()

    @property
    def is_hard(self) -> bool:
        return self.weight.is_hard


@dataclass(frozen=True)
class GroundProgram:
    rules: tuple[GroundRule, ...]

    def __len__(self) -> int:
        return len(self.rules)

    @cached_property
    def atoms(self) -> tuple[Atom, ...]:
        """All atoms occurring in the ground rules, deterministically ordered."""
        seen = set()
        for r in self.rules:
            seen.update(r.head)
            seen.update(l.atom for l in r.body)
        return tuple(sorted(seen, key=atom_sort_key))


def _safe_variables(rule: Rule) -> set[str]:
    safe = set()
    for el in rule.body:
        if isinstance(el, Literal) and el.negation == 0:
            safe.update(t.name for t in el.atom.args if t.is_variable)
    if rule.is_choice:
        safe.update(t.name for t in rule.head[0].args if t.is_variable)
    else:
        # A desugared choice rule carries its head atom double-negated in the
        # body; its variables range over the universe just like a choice head.
        for el in rule.body:
            if (isinstance(el, Literal) and el.negation == 2
                    and len(rule.head) == 1 and el.atom == rule.head[0]):
                safe.update(t.name for t in el.atom.args if t.is_variable)
    return safe


def check_safety(rule: Rule) -> bool:
    """True iff every variable occurs in a positive non-builtin body literal
    (choice-rule head variables implicitly range over the universe)."""
    return _first_unsafe(rule) is None


def _first_unsafe(rule: Rule) -> str | None:
    safe = _safe_variables(rule)
    for v in rule.variables():
        if v not in safe:
            return v
    return None


def _desugar_safe(program: Program) -> Program:
    """The program with choice rules desugared; raises ``UnsafeRuleError``
    for the first rule with an unsafe variable."""
    program = desugar_program(program)
    for rule in program.rules:
        bad = _first_unsafe(rule)
        if bad is not None:
            raise UnsafeRuleError(rule.index, bad)
    return program


def ground(program: Program, cap: int = DEFAULT_GROUND_CAP,
           universe: tuple[Term, ...] | None = None) -> GroundProgram:
    """Produce every consistent ground instance of every rule.

    Inequalities are resolved during substitution: satisfied ones are
    deleted, falsified ones delete the instance.  ``universe`` overrides the
    program's own constant set (used when grounding generated programs whose
    bookkeeping terms must not enter the substitution domain).
    """
    program = _desugar_safe(program)
    if universe is None:
        universe = program.universe
    out: list[GroundRule] = []
    for rule in program.rules:
        variables = rule.variables()
        if variables and not universe:
            raise EmptyUniverseError(rule.index)
        for combo in product(universe, repeat=len(variables)):
            binding = dict(zip(variables, combo))
            body: list[Literal] = []
            ok = True
            for el in rule.body:
                el = el.substitute(binding)
                if isinstance(el, Inequality):
                    if el.lhs == el.rhs:
                        ok = False
                        break
                    continue
                body.append(el)
            if not ok:
                continue
            head = tuple(a.substitute(binding) for a in rule.head)
            out.append(GroundRule(rule.index, rule.weight, head, tuple(body), combo))
            if len(out) > cap:
                raise GroundingCapError(cap)
    return GroundProgram(tuple(out))


def ground_to_program(gp: GroundProgram) -> Program:
    """Re-package ground instances as a plain program, one rule per instance,
    indexed sequentially."""
    rules = tuple(
        Rule(k, g.weight, g.head, g.body)
        for k, g in enumerate(gp.rules, start=1)
    )
    return Program(rules)
