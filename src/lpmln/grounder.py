"""Universe-product grounder: substitute universe constants for global
variables.

Every rule is instantiated under every tuple of universe constants for its
variables; choice rules are desugared before grounding, inequalities are
evaluated and removed, and the output order is deterministic (source rule
index, then lexicographic substitution).  Each rule is compiled once: a
variable becomes its position in a substitution, inequalities are decided
on those positions before any object is built, and each atom occurrence
keeps its instances by the values of the variables it uses.  Ground atoms
and literals are pooled, so one ground atom is one object throughout the
program.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import itemgetter

from .model import (
    Atom, Literal, Program, Rule, Term, Weight,
    _choice_marker, atom_sort_key, desugar_program,
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
    # a choice head's variables range over the universe, desugared or not
    if rule.is_choice or _choice_marker(rule) is not None:
        safe.update(t.name for t in rule.head[0].args if t.is_variable)
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
    pool = _Pool(universe)
    out: list[GroundRule] = []
    for rule in program.rules:
        variables = rule.variables()
        if variables and not universe:
            raise EmptyUniverseError(rule.index)
        compiled = _compile(rule, variables, pool)
        if compiled is None:
            continue  # an inequality fails under every substitution
        heads, body, unequal = compiled
        # each substitution as its terms and as their universe positions
        combos = zip(product(universe, repeat=len(variables)),
                     product(range(len(universe)), repeat=len(variables)))
        for subst, ids in combos:
            if unequal and any(ids[i] == (ids[j] if j >= 0 else ~j) for i, j in unequal):
                continue
            out.append(GroundRule(rule.index, rule.weight,
                                  tuple([made[key(ids)] for key, made in heads]),
                                  tuple([made[key(ids)] for key, made in body]), subst))
            if len(out) > cap:
                raise GroundingCapError(cap)
    gp = GroundProgram(tuple(out))
    # every pooled atom occurs in a rule: this is what the property computes
    gp.__dict__["atoms"] = tuple(sorted(pool.atoms.values(), key=atom_sort_key))
    return gp


class _Pool:
    """One object per ground atom, by ``(predicate, args)``, and per ground
    literal, by ``(atom, negation)``."""

    def __init__(self, universe: tuple[Term, ...]):
        self.universe = universe
        self.position = {t: i for i, t in enumerate(universe)}
        self.atoms: dict[tuple, Atom] = {}
        self.literals: dict[tuple, Literal] = {}

    def get(self, predicate: str, args: tuple[Term, ...], negation: int | None):
        a = self.atoms.get((predicate, args))
        if a is None:
            a = self.atoms[predicate, args] = Atom(predicate, args)
        if negation is None:
            return a
        lit = self.literals.get((a, negation))
        if lit is None:
            lit = self.literals[a, negation] = Literal(a, negation)
        return lit


class _Instances(dict):
    """The instances of one atom occurrence in a rule, made on first use:
    the pooled atom, or the pooled literal when ``negation`` is set.

    The key is the universe positions of the values of the occurrence's
    variable arguments, in argument order (a bare position for one).
    ``spec`` holds per argument its place in the key or the constant itself.
    """

    def __init__(self, a: Atom, negation: int | None, spec: tuple, pool: _Pool):
        self.predicate = a.predicate
        self.negation = negation
        self.spec = spec
        self.pool = pool

    def __missing__(self, key):
        ids = key if type(key) is tuple else (key,)
        universe = self.pool.universe
        args = tuple(universe[ids[s]] if type(s) is int else s for s in self.spec)
        made = self[key] = self.pool.get(self.predicate, args, self.negation)
        return made


def _occurrence(a: Atom, negation: int | None, slot: dict[str, int], pool: _Pool):
    """``(key, instances)`` for one atom occurrence: ``key`` picks the
    occurrence's key from a substitution's universe positions."""
    spec: list = []
    used: list[int] = []
    for t in a.args:
        if t.is_constant:
            spec.append(t)
        else:
            spec.append(len(used))
            used.append(slot[t.name])
    key = itemgetter(*used) if used else _no_key
    return key, _Instances(a, negation, tuple(spec), pool)


def _no_key(ids: tuple) -> tuple:
    return ()


def _compile(rule: Rule, variables: tuple[str, ...], pool: _Pool):
    """``(head occurrences, body occurrences, inequalities)`` of a rule, or
    ``None`` when an inequality fails under every substitution.  An
    inequality is a pair of variable positions ``(i, j)``, or ``(i, ~p)``
    against the constant at universe position ``p``; the ones every
    substitution satisfies are left out."""
    slot = {v: i for i, v in enumerate(variables)}
    heads = [_occurrence(a, None, slot, pool) for a in rule.head]
    body = []
    unequal = []
    for el in rule.body:
        if isinstance(el, Literal):
            body.append(_occurrence(el.atom, el.negation, slot, pool))
            continue
        a, b = (el.rhs, el.lhs) if el.lhs.is_constant else (el.lhs, el.rhs)
        if a == b:
            return None
        if a.is_constant:
            continue  # two distinct constants
        if b.is_variable:
            unequal.append((slot[a.name], slot[b.name]))
        elif b in pool.position:  # a constant outside it differs from every value
            unequal.append((slot[a.name], ~pool.position[b]))
    return heads, body, unequal


def ground_to_program(gp: GroundProgram) -> Program:
    """Re-package ground instances as a plain program, one rule per instance,
    indexed sequentially."""
    rules = tuple(
        Rule(k, g.weight, g.head, g.body)
        for k, g in enumerate(gp.rules, start=1)
    )
    return Program(rules)
