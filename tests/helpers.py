"""Shared test utilities: tiny program builders, independent oracles, and
seeded random generators.

The naive stable-model oracle here is deliberately a from-scratch
implementation over plain sets (full 2^n candidate sweep, subset-search
minimality) so the engine under test is checked against something that
shares none of its code paths.
"""

from __future__ import annotations

import random
from itertools import chain, combinations, product

from lpmln import parse_program
from lpmln.grounder import GroundProgram, GroundRule
from lpmln.model import Atom, Literal, Program


def P(text: str) -> Program:
    return parse_program(text)


# --- independent universe-product grounder ---------------------------------

def naive_ground(program: Program, universe=None) -> GroundProgram:
    """Every instance of every rule by substituting each tuple of universe
    constants for the rule's variables, one plain dict per substitution:
    choice heads become ``not not`` body literals, true inequalities are
    deleted and false ones delete the instance."""
    if universe is None:
        universe = program.universe
    out = []
    for rule in program.rules:
        body = list(rule.body)
        if rule.is_choice:
            body.append(Literal(rule.head[0], 2))
        names = []
        for a in list(rule.head) + [el.atom if isinstance(el, Literal) else el for el in body]:
            terms = a.args if isinstance(a, Atom) else (a.lhs, a.rhs)
            for t in terms:
                if t.name[:1].isupper() and t.name not in names:
                    names.append(t.name)
        for combo in product(universe, repeat=len(names)):
            binding = dict(zip(names, combo))

            def sub(t):
                return binding.get(t.name, t)

            lits = []
            for el in body:
                if isinstance(el, Literal):
                    lits.append(Literal(Atom(el.atom.predicate,
                                             tuple(map(sub, el.atom.args))), el.negation))
                elif sub(el.lhs) == sub(el.rhs):
                    break
            else:
                head = tuple(Atom(a.predicate, tuple(map(sub, a.args))) for a in rule.head)
                out.append(GroundRule(rule.index, rule.weight, head, tuple(lits), combo))
    return GroundProgram(tuple(out))


def naive_live(program: Program) -> GroundProgram:
    """The instances of ``naive_ground(program)`` whose positive body atoms
    all lie in the least model of all instances with ``not`` and ``not not``
    ignored."""
    gp = naive_ground(program)
    model = set()
    grew = True
    while grew:
        grew = False
        for r in gp.rules:
            if all(l.atom in model for l in r.body if l.negation == 0) \
                    and not set(r.head) <= model:
                model.update(r.head)
                grew = True
    return GroundProgram(tuple(
        r for r in gp.rules if all(l.atom in model for l in r.body if l.negation == 0)))


def naive_atoms(gp: GroundProgram) -> tuple:
    """The atoms of the ground rules, sorted by predicate, arity, argument names."""
    seen = {a for r in gp.rules for a in r.head} | {l.atom for r in gp.rules for l in r.body}
    return tuple(sorted(seen, key=lambda a: (a.predicate, len(a.args),
                                             [t.name for t in a.args])))


# --- independent stable-model oracle ---------------------------------------

def _classically_satisfies(interp, rule) -> bool:
    body = True
    for lit in rule.body:
        holds = (lit.atom in interp) if lit.negation != 1 else (lit.atom not in interp)
        if not holds:
            body = False
            break
    return (not body) or any(h in interp for h in rule.head)


def violation_mask(rules, interp) -> int:
    """Bit k set iff ``rules[k]`` is classically violated by ``interp``."""
    return sum(1 << k for k, r in enumerate(rules) if not _classically_satisfies(interp, r))


def _reduct(rules, interp):
    out = []
    for r in rules:
        ok = True
        for lit in r.body:
            if lit.negation == 1 and lit.atom in interp:
                ok = False
            if lit.negation == 2 and lit.atom not in interp:
                ok = False
        if ok:
            out.append((set(r.head), {l.atom for l in r.body if l.negation == 0}))
    return out


def _models_reduct(subset, reduct) -> bool:
    return not any(pos <= subset and not (heads & subset) for heads, pos in reduct)


def _powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))


def naive_is_stable(rules, interp) -> bool:
    if not all(_classically_satisfies(interp, r) for r in rules):
        return False
    reduct = _reduct(rules, interp)
    if not _models_reduct(set(interp), reduct):
        return False
    for sub in _powerset(interp):
        s = set(sub)
        if s != set(interp) and _models_reduct(s, reduct):
            return False
    return True


def naive_sm(gp: GroundProgram, require_hard: bool = False):
    """SM[P] by definition: try every subset of the occurring atoms, and for
    each candidate check stability with respect to the rules it satisfies."""
    models = []
    for sub in _powerset(gp.atoms):
        interp = frozenset(sub)
        if require_hard and not all(
                _classically_satisfies(interp, r) for r in gp.rules if r.is_hard):
            continue
        satisfied = [r for r in gp.rules if _classically_satisfies(interp, r)]
        if naive_is_stable(satisfied, interp):
            models.append(interp)
    return models


# --- random program generation ----------------------------------------------

def grid_weight(rng: random.Random) -> str:
    return f"{rng.randint(-3000, 3000) / 1000:g}"


def integer_weight(rng: random.Random) -> str:
    """``grid_weight``'s range in whole numbers."""
    return str(rng.randint(-3, 3))


def random_program_text(rng: random.Random, n_atoms: int, n_rules: int,
                        hard_frac: float = 0.3, allow_disjunction: bool = False,
                        allow_choice: bool = True, weight=grid_weight) -> str:
    atoms = [f"a{k}" for k in range(1, n_atoms + 1)]
    lines = []
    for _ in range(n_rules):
        roll = rng.random()
        head_atoms = []
        choice = False
        if roll < 0.12:
            pass  # constraint
        elif allow_disjunction and n_atoms >= 2 and roll < 0.24:
            head_atoms = rng.sample(atoms, 2)
        elif allow_choice and roll < 0.3:
            head_atoms = [rng.choice(atoms)]
            choice = True
        else:
            head_atoms = [rng.choice(atoms)]
        body = []
        for b in rng.sample(atoms, rng.randint(0, min(3, n_atoms))):
            body.append(("", "not ", "not not ")[rng.choices([0, 1, 2], [5, 3, 2])[0]] + b)
        if not head_atoms and not body:
            body = [rng.choice(atoms)]
        text = "" if rng.random() < hard_frac else weight(rng) + " "
        head = "{" + head_atoms[0] + "}" if choice else " ; ".join(head_atoms)
        rule = text + head
        if body:
            rule += (" :- " if head else ":- ") + ", ".join(body)
        lines.append(rule + ".")
    return "\n".join(lines) + "\n"


def random_text_with_facts(rng: random.Random, n_atoms: int, n_rules: int,
                           n_facts: int) -> str:
    """``random_program_text`` with choice, disjunction and ``not not``, plus
    hard facts over some of its atoms, so that strict mode has atoms that
    hold in every candidate."""
    text = random_program_text(rng, n_atoms, n_rules, allow_disjunction=True)
    facts = rng.sample(range(1, n_atoms + 1), min(n_facts, n_atoms))
    return text + "".join(f"a{k}.\n" for k in facts)


def random_tight_text(rng: random.Random, n_atoms: int, n_rules: int,
                      hard_frac: float = 0.25) -> str:
    """Tight programs: positive body atoms are strictly lower-numbered than
    the head, so the positive dependency graph is acyclic."""
    atoms = [f"a{k}" for k in range(1, n_atoms + 1)]
    lines = []
    for _ in range(n_rules):
        roll = rng.random()
        if roll < 0.1:
            head_idx = None
        else:
            head_idx = rng.randrange(n_atoms)
        body = []
        if head_idx is not None and head_idx > 0:
            for b in rng.sample(range(head_idx), rng.randint(0, min(2, head_idx))):
                body.append(atoms[b])
        for b in rng.sample(atoms, rng.randint(0, 2)):
            body.append(rng.choice(["not ", "not not "]) + b)
        weight = "" if rng.random() < hard_frac else grid_weight(rng) + " "
        if head_idx is None:
            if not body:
                continue
            lines.append(weight + ":- " + ", ".join(body) + ".")
        elif roll < 0.25:
            rule = weight + "{" + atoms[head_idx] + "}"
            if body:
                rule += " :- " + ", ".join(body)
            lines.append(rule + ".")
        else:
            rule = weight + atoms[head_idx]
            if body:
                rule += " :- " + ", ".join(body)
            lines.append(rule + ".")
    return "\n".join(lines) + "\n" if lines else "a1 :- a1.\n"
