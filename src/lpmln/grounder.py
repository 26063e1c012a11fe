"""Universe-product grounder: substitute universe constants for global
variables.

``ground`` instantiates every rule under every tuple of universe constants
for its variables; choice rules are desugared before grounding,
inequalities are evaluated and removed, and the output order is
deterministic (source rule index, then lexicographic substitution).  Each
rule is compiled once: a variable becomes its position in a substitution,
inequalities are decided on those positions before any object is built,
and each atom occurrence keeps its instances by the values of the
variables it uses (occurrences alike but for their variables' names share
them).  Ground atoms and literals are pooled, so one ground atom is one
object throughout the program.  The substitutions are walked in one place,
``_walk``, with the universe product, the inequality filter, the cap and
the walk's errors: ``ground`` builds its instances from it, and the reward
translation's text (``asp_backend._reward_text``) is rendered from it
without building any: an occurrence's ``_Instances`` writes the text of
its instance at a key from the universe's term names, pooling nothing.

``_ground_live``, which the CLI's inference calls, builds only the
instances whose positive body atoms are derivable with negation ignored,
the bound the engine puts on every stable model; it leaves ``not`` and
``not not`` atoms to the engine, as a grounder leaves negation to its
solver.  It finds them semi-naively.  Facts are built at once, and their
head atoms are the first round's new atoms.  Every other rule is one
join of its positive body literals against the atoms found so far, one
literal over the atoms new in the last round, on indexes of the bound
argument positions; a rule without variables probes its atoms whole and
so fires once.  It shares the desugaring, ``_compile``, ``_Pool`` and
the instance build (``_instances``) with ``ground``, and keeps
``ground``'s order, errors and cap.  Its atoms are those of the
instances it keeps, which are all that can be true in a stable model,
and ``ground``'s atoms of the predicates queried, so that an underivable
query atom prints at 0.  An instance left out is satisfied by every
candidate and never counted in penalty mode, and an atom of none kept is
false in every candidate, so inference gives the same output from
either; reward mode would count such an instance, so the library keeps
``ground``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count, islice, product
from operator import itemgetter

from .model import (
    Atom, Literal, Program, Rule, Term, Weight,
    _atom_text, _choice_marker, atom_sort_key, desugar_program,
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

    def __getstate__(self) -> dict:
        # the engine's compiled form (engine._compiled) is a cache: it stays
        # out of pickles and copies, as Atom's hash does
        return {k: v for k, v in self.__dict__.items() if k != "_compiled"}

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
    pool = _Pool(program.universe if universe is None else universe)
    out: list[GroundRule] = []
    for rule, heads, body, combos in _walk(program, pool, cap):
        out += _instances(rule, heads, body, combos)
    gp = GroundProgram(tuple(out))
    # every pooled atom occurs in a rule: this is what the property computes
    # (not so in _ground_live, whose pool holds its query's atoms too)
    gp.__dict__["atoms"] = tuple(sorted(pool.atoms.values(), key=atom_sort_key))
    return gp


def _walk(program: Program, pool: _Pool, cap: int):
    """``ground``'s instances of ``program`` over ``pool``'s universe, one
    source rule at a time: per desugared rule that an inequality does not
    rule out, ``(rule, heads, body, combos)``, its occurrences as
    ``_compile`` gives them and an iterator over its substitutions, each as
    ``(subst, ids)``, the terms substituted and their universe positions,
    in product order under its inequalities.  The caller takes all of
    ``combos`` before the next rule.  Raises ``EmptyUniverseError`` for a
    rule with variables over an empty universe and ``GroundingCapError``
    once the rules so far have more than ``cap`` instances."""
    program = _desugar_safe(program)
    universe = pool.universe
    shared: dict = {}
    left = cap + 1  # instances to take before the cap is exceeded
    for rule in program.rules:
        variables = rule.variables()
        if variables and not universe:
            raise EmptyUniverseError(rule.index)
        compiled = _compile(rule, variables, pool, shared)
        if compiled is None:
            continue  # an inequality fails under every substitution
        heads, body, unequal = compiled
        combos = zip(product(universe, repeat=len(variables)),
                     product(range(len(universe)), repeat=len(variables)))
        if unequal:
            combos = ((subst, ids) for subst, ids in combos
                      if not any(ids[i] == (ids[j] if j >= 0 else ~j) for i, j in unequal))
        # lazily, so that product can reuse its tuples; ``taken`` counts the
        # substitutions the caller took, as zip draws on it after each one
        taken = count()
        yield rule, heads, body, islice(map(_first, zip(combos, taken)), left)
        left -= next(taken)
        if not left:
            raise GroundingCapError(cap)


def _instances(rule: Rule, heads, body, combos) -> list[GroundRule]:
    """The instances of a rule compiled by ``_compile``, one per ``(subst,
    ids)`` of ``combos``: the terms substituted and their universe positions."""
    return [GroundRule(rule.index, rule.weight, tuple([made[key(ids)] for key, made in heads]),
                       tuple([made[key(ids)] for key, made in body]), subst)
            for subst, ids in combos]


def _ground_live(program: Program, cap: int = DEFAULT_GROUND_CAP,
                 query: tuple[str, ...] = ()) -> GroundProgram:
    """The instances of ``ground(program)`` whose positive body atoms are
    derivable, in its order, with their atoms and, for each predicate name
    in ``query``, all of ``ground``'s atoms of that name.

    An atom is derivable when it heads an instance whose positive body
    atoms are derivable, negation ignored: the least model by which the
    engine bounds every stable model.  Facts are built at once and their
    head atoms are the first round's new atoms; every other rule is a
    ``_Join`` that ``_derive`` runs round by round.  An instance is kept
    whatever its ``not`` and ``not not`` atoms: the engine drops one whose
    ``not not`` atom is underivable, and a kept instance adds no atom to
    what the engine derives, so it finds the same free atoms as from
    ``ground``'s.  An atom of no instance kept is false in every stable
    model; the query's are listed so that they print at 0.  ``cap`` bounds
    each level of each join and the facts and substitutions found in all.
    """
    program = _desugar_safe(program)
    universe = program.universe
    pool = _Pool(universe)
    shared: dict = {}
    at = {t.name: i for i, t in enumerate(universe)}
    plans: list = []  # per rule with instances: a fact's instance, or the rule's _Join
    delta: dict = {}  # the facts' head atoms
    for rule in program.rules:
        if not rule.body:  # a fact: safe, so without variables
            plans.append(_instance(rule, pool))
            for p, t in [_key(a, at) for a in rule.head]:
                delta.setdefault(p, set()).add(t)
            continue
        variables = rule.variables()
        compiled = None
        if variables:
            if not universe:
                if len(plans) > cap:  # every rule before has one instance, as in ground
                    raise GroundingCapError(cap)
                raise EmptyUniverseError(rule.index)
            compiled = _compile(rule, variables, pool, shared)
            if compiled is None:
                continue
        elif any(not isinstance(el, Literal) and el.lhs == el.rhs for el in rule.body):
            continue  # an inequality between equal constants
        plans.append(_Join(rule, variables, compiled, at))
    joins = [plan for plan in plans if type(plan) is _Join]
    _derive(joins, delta, len(plans) - len(joins), cap)
    out: list[GroundRule] = []
    for plan in plans:
        if type(plan) is GroundRule:
            out.append(plan)
            continue
        rule = plan.rule
        k = len(plan.variables)
        if not k:  # it fired once or never
            if plan.found:
                out.append(_instance(rule, pool))
        else:
            if len(plan.found) == len(universe) ** k:  # every substitution, in product order
                combos = zip(product(universe, repeat=k), product(range(len(universe)), repeat=k))
            else:
                combos = ((tuple([universe[i] for i in ids]), ids) for ids in sorted(plan.found))
            out += _instances(rule, *plan.compiled[:2], combos)
        for predicate, ids in _atom_keys(plan, query, len(universe), cap):
            pool.get(predicate, tuple([universe[i] for i in ids]), None)
    gp = GroundProgram(tuple(out))
    # the atoms of the instances kept and the query's: those in the pool
    gp.__dict__["atoms"] = tuple(sorted(pool.atoms.values(), key=atom_sort_key))
    return gp


def _instance(rule: Rule, pool: _Pool) -> GroundRule:
    """The one instance of a rule without variables, its inequalities left out."""
    return GroundRule(rule.index, rule.weight,
                      tuple([pool.get(a.predicate, a.args, None) for a in rule.head]),
                      tuple([pool.get(el.atom.predicate, el.atom.args, el.negation)
                             for el in rule.body if isinstance(el, Literal)]))


def _derive(joins: list[_Join], delta: dict, fired: int, cap: int) -> None:
    """Derive the atoms that follow from ``delta``, the head atoms of the
    ``fired`` facts, per ``(predicate, arity)`` as tuples of universe
    positions, and leave in each join's ``found`` the substitutions under
    which its positive body atoms are derivable; ``cap`` bounds them and the
    facts in all."""
    facts = _Facts()
    for plan in joins:
        if not plan.positives:
            fired += plan.emit(plan.complete([[-1] * len(plan.variables)], cap), delta)
    while True:
        if fired > cap:
            raise GroundingCapError(cap)
        if not delta:
            return
        facts.add(delta)
        fresh: dict = {}
        for plan in joins:
            for i, (predicate, _) in enumerate(plan.positives):
                if predicate in delta:
                    fired += plan.emit(plan.join(i, facts, delta, cap), fresh)
        delta = {}
        for p, tuples in fresh.items():
            tuples.difference_update(facts.known.get(p, ()))
            if tuples:
                delta[p] = tuples


def _atom_keys(plan: _Join, query: tuple[str, ...], size: int, cap: int) -> set[tuple]:
    """The atoms named in ``query`` of every instance of the rule that
    ``ground`` builds, each as ``(predicate, universe positions)``.

    An atom occurrence's instances are the values of its own variables
    under the inequalities among them and against constants: each other
    variable can still take a value as long as the universe has more
    values than it has inequalities.  Otherwise every substitution is
    tried, as ``ground`` does."""
    unequal = plan.unequal
    occurrences = [(p, src) for (p, _), src in plan.heads + plan.literals if p in query]
    keys: set[tuple] = set()
    shapes = set()
    for predicate, src in occurrences:
        own = list(dict.fromkeys(s for s in src if s >= 0))
        if any(sum(1 for x, c in unequal if s in (x, c)) >= size
               for s in range(len(plan.variables)) if s not in own):
            break
        # the occurrence with its variables renumbered by first argument
        spec = tuple([own.index(s) if s >= 0 else s for s in src])
        within = tuple([(own.index(x), c if c < 0 else own.index(c)) for x, c in unequal
                        if x in own and (c < 0 or c in own)])
        if (predicate, spec, within) in shapes:
            continue
        shapes.add((predicate, spec, within))
        for combo in product(range(size), repeat=len(own)):
            if all(combo[x] != (combo[c] if c >= 0 else ~c) for x, c in within):
                keys.add((predicate, tuple([combo[s] if s >= 0 else ~s for s in spec])))
    else:
        return keys
    count = 0
    for ids in product(range(size), repeat=len(plan.variables)):
        if all(ids[x] != (ids[c] if c >= 0 else ~c) for x, c in unequal):
            count += 1
            if count > cap:
                raise GroundingCapError(cap)
            for predicate, src in occurrences:
                keys.add((predicate, tuple([ids[s] if s >= 0 else ~s for s in src])))
    return keys


def _key(a: Atom, at: dict) -> tuple:
    """A ground atom as ``((predicate, arity), universe positions of its arguments)``."""
    return (a.predicate, len(a.args)), tuple([at[t.name] for t in a.args])


class _Facts:
    """The atoms found so far: per ``(predicate, arity)``, their argument
    tuples of universe positions as a set and in derivation order, and
    indexes on the argument positions a join has bound, each brought up to
    date when it is read."""

    def __init__(self):
        self.known: dict[tuple, set] = {}
        self.order: dict[tuple, list] = {}
        self.indexes: dict[tuple, list] = {}

    def add(self, new: dict) -> None:
        for p, tuples in new.items():
            self.known.setdefault(p, set()).update(tuples)
            self.order.setdefault(p, []).extend(tuples)

    def matches(self, p: tuple, positions: tuple, key: tuple):
        """The tuples of ``p`` that hold ``key`` at ``positions``."""
        if len(positions) == p[1]:
            return (key,) if key in self.known.get(p, ()) else ()
        tuples = self.order.get(p, [])
        if not positions:
            return tuples
        entry = self.indexes.get((p, positions))
        if entry is None:
            entry = self.indexes[p, positions] = [{}, 0]
        table, done = entry
        for t in tuples[done:]:
            table.setdefault(tuple([t[k] for k in positions]), []).append(t)
        entry[1] = len(tuples)
        return table.get(key, ())


class _Join:
    """The substitutions of one rule under which its positive body atoms are
    derivable.  An atom occurrence is ``((predicate, arity), src)``, with per
    argument the slot of its variable or ``~p`` for the constant at
    universe position ``p``.  A substitution is a list of universe
    positions by slot, -1 while unbound.  ``steps[i]`` joins positive
    literal ``i`` first, over the atoms new in the last round, then the
    others, each next the one with the most arguments bound, those before
    ``i`` in the body over the older atoms only; a step tests each
    inequality as soon as it binds both sides.  A rule without variables
    has no ``compiled`` and no steps: it probes its positive atoms whole,
    so it fires once, in the round its last one is found."""

    def __init__(self, rule: Rule, variables: tuple[str, ...], compiled, at: dict):
        self.rule = rule
        self.variables = variables
        self.compiled = compiled
        self.unequal = compiled[2] if compiled else []
        self.size = len(at)
        slot = {v: i for i, v in enumerate(variables)}

        def occurrence(a: Atom):
            return ((a.predicate, len(a.args)),
                    tuple([slot[t.name] if t.name in slot else ~at[t.name] for t in a.args]))
        self.heads = [occurrence(a) for a in rule.head]
        self.literals, self.positives = [], []
        for el in rule.body:
            if isinstance(el, Literal):
                self.literals.append(occurrence(el.atom))
                if not el.negation:
                    self.positives.append(self.literals[-1])
        self.found: list[list[int]] = []
        self.free = self.rest = []
        if not variables:  # its positive atoms as keys of ``delta``
            self.whole = [(p, tuple([~s for s in src])) for p, src in self.positives]
            return
        self.steps = [self._steps(i) for i in range(len(self.positives))]
        bound = {s for _, src in self.positives for s in src if s >= 0}
        self.free = [s for s in range(len(variables)) if s not in bound]
        # the inequalities on free slots
        self.rest = [(a, b) for a, b in self.unequal if a not in bound or b >= 0 and b not in bound]

    def _steps(self, i: int) -> list[tuple]:
        """Per positive literal in join order: its predicate, the argument
        positions already bound and where their values come from, pairs of
        positions that bind one slot twice, the slots it binds, the
        inequalities it completes, and whether it reads the new atoms
        (None), the older ones (True) or all (False)."""
        bound: set[int] = set()
        unequal = self.unequal
        steps = []
        rest = [j for j in range(len(self.positives)) if j != i]
        j = i
        while True:
            p, src = self.positives[j]
            probe = [k for k, s in enumerate(src) if s < 0 or s in bound]
            first: dict[int, int] = {}  # an unbound slot -> its first argument here
            same = []
            for k, s in enumerate(src):
                if s >= 0 and s not in bound:
                    if s in first:
                        same.append((k, first[s]))
                    else:
                        first[s] = k
            bound.update(first)
            checks = [(a, b) for a, b in unequal if a in bound and (b < 0 or b in bound)]
            if checks:
                unequal = [pair for pair in unequal if pair not in checks]
            steps.append((p, tuple(probe), [src[k] for k in probe], same,
                          [(k, s) for s, k in first.items()], checks,
                          None if j == i else j < i))
            if not rest:
                return steps
            # next, the literal with the most arguments bound
            j = max(rest, key=lambda j: sum(1 for s in self.positives[j][1]
                                            if s < 0 or s in bound))
            rest.remove(j)

    def join(self, i: int, facts: _Facts, delta: dict, cap: int) -> list[list[int]]:
        """The substitutions that join positive literal ``i`` over ``delta``,
        the atoms new in the last round, and the others over ``facts``."""
        if not self.variables:  # those before i older, those after it any
            p, t = self.whole[i]
            return [[]] if t in delta[p] and all(
                u in facts.known.get(q, ()) and (j >= i or u not in delta.get(q, ()))
                for j, (q, u) in enumerate(self.whole)) else []
        subs = [[-1] * len(self.variables)]
        for p, positions, probe, same, binds, checks, older in self.steps[i]:
            new = delta.get(p, ()) if older else ()
            out = []
            for b in subs:
                key = tuple([b[s] if s >= 0 else ~s for s in probe])
                if older is not None:
                    candidates = facts.matches(p, positions, key)
                elif positions:  # the first step: only constants are bound
                    candidates = [t for t in delta[p] if tuple([t[k] for k in positions]) == key]
                else:
                    candidates = delta[p]
                for t in candidates:
                    if older and t in new or same and any(t[k] != t[f] for k, f in same):
                        continue
                    nb = b.copy()
                    for k, s in binds:
                        nb[s] = t[k]
                    if not checks or all(nb[a] != (nb[c] if c >= 0 else ~c) for a, c in checks):
                        out.append(nb)
                if len(out) > cap:
                    raise GroundingCapError(cap)
            subs = out
        return self.complete(subs, cap)

    def complete(self, subs: list[list[int]], cap: int) -> list[list[int]]:
        """``subs`` with each free slot (a choice head's variable) bound to
        every universe position, under the inequalities on free slots."""
        if not self.free:
            return subs
        out = []
        for b in subs:
            for combo in product(range(self.size), repeat=len(self.free)):
                nb = b.copy()
                for s, v in zip(self.free, combo):
                    nb[s] = v
                if all(nb[a] != (nb[c] if c >= 0 else ~c) for a, c in self.rest):
                    out.append(nb)
            if len(out) > cap:
                raise GroundingCapError(cap)
        return out

    def emit(self, subs: list[list[int]], fresh: dict) -> int:
        """Record the substitutions, add their head atoms to ``fresh``, and
        count them."""
        self.found += subs
        for p, src in self.heads:
            if len(src) > 1 and min(src) >= 0:  # only variables: one C call a key
                keys = map(itemgetter(*src), subs)
            else:
                keys = [tuple([b[s] if s >= 0 else ~s for s in src]) for b in subs]
            fresh.setdefault(p, set()).update(keys)
        return len(subs)


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

    def text(self, key, negation: int) -> str:
        """The text of the instance at ``key`` under ``negation`` ``not``s,
        made from ``spec`` and the universe's names: no atom is pooled."""
        ids = key if type(key) is tuple else (key,)
        universe = self.pool.universe
        return _atom_text(self.predicate, [universe[ids[s]].name if type(s) is int else s.name
                                           for s in self.spec], negation)


def _occurrence(a: Atom, negation: int | None, slot: dict[str, int], pool: _Pool,
                shared: dict):
    """``(key, instances)`` for one atom occurrence: ``key`` picks the
    occurrence's key from a substitution's universe positions.  The
    instances are ``shared``'s by ``(predicate, spec, negation)``:
    occurrences alike but for their variables' names share them.  (Not the
    pool's: an ``_Instances`` refers to its pool, and a cycle would keep
    every pooled atom until the next collection.)"""
    spec: list = []
    used: list[int] = []
    for t in a.args:
        if t.is_constant:
            spec.append(t)
        else:
            spec.append(len(used))
            used.append(slot[t.name])
    key = itemgetter(*used) if used else _no_key
    shape = (a.predicate, tuple(spec), negation)
    made = shared.get(shape)
    if made is None:
        made = shared[shape] = _Instances(a, negation, shape[1], pool)
    return key, made


def _no_key(ids: tuple) -> tuple:
    return ()


_first = itemgetter(0)


def _compile(rule: Rule, variables: tuple[str, ...], pool: _Pool, shared: dict):
    """``(head occurrences, body occurrences, inequalities)`` of a rule, or
    ``None`` when an inequality fails under every substitution.  An
    inequality is a pair of variable positions ``(i, j)``, or ``(i, ~p)``
    against the constant at universe position ``p``; the ones every
    substitution satisfies are left out.  ``shared`` holds the occurrences'
    instances (``_occurrence``)."""
    slot = {v: i for i, v in enumerate(variables)}
    heads = [_occurrence(a, None, slot, pool, shared) for a in rule.head]
    body = []
    unequal = []
    for el in rule.body:
        if isinstance(el, Literal):
            body.append(_occurrence(el.atom, el.negation, slot, pool, shared))
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
