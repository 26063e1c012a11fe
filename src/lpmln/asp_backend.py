"""Compilation of weighted programs to plain ASP with weak constraints.

Two flavors.  The penalty translation marks each violated source rule with
an ``unsat`` atom and charges its weight; it keeps safe programs safe and
is the workhorse behind inference.  The reward translation marks each
satisfied rule with a ``sat`` atom and credits its weight; it requires a
ground input.  Both come with the witness map ``phi_extend`` and an
internal weak-constraint evaluator, so the correspondence between most
probable stable models and optimal stable models can be checked end to
end without an external solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .engine import DEFAULT_ATOM_CAP, _bit_indices, _Compiled, enumerate_sm
from .grounder import GroundProgram, GroundRule, UnsafeRuleError, _first_unsafe, ground
from .model import (
    HARD, Atom, Interpretation, Literal, Program, Rule, Term, Weight,
    desugar_choice,
)

UNSAT = "unsat"
SAT = "sat"


class NonGroundProgramError(ValueError):
    pass


@dataclass(frozen=True)
class WeakConstraint:
    """``:~ body. [weight@level, terms...]`` with an integer weight."""

    body: tuple[Literal, ...]
    weight: int
    level: int
    terms: tuple[Term, ...]


@dataclass(frozen=True)
class TranslatedProgram:
    rules: tuple[Rule, ...]
    weak: tuple[WeakConstraint, ...]
    scale: int
    flavor: str  # "penalty" | "reward"
    source_universe: tuple[Term, ...] = ()


def _weight_token(w: Weight) -> Term:
    return Term('"alpha"' if w.is_hard else f'"{w.value:.6f}"')


def _scaled(w: Weight, scale: int) -> int:
    return 1 if w.is_hard else int(round(w.value * scale))


def _marker_atom(name: str, rule: Rule) -> Atom:
    args = (Term(str(rule.index)), _weight_token(rule.weight))
    args += tuple(Term(v) for v in rule.variables())
    return Atom(name, args)


def translate_penalty(program: Program, scale: int = 1000,
                      translate_hard: bool = False) -> TranslatedProgram:
    """Per translated rule i: ``unsat(i,w,x) :- Body, not Head``,
    ``Head :- Body, not unsat(i,w,x)``, and ``:~ unsat(i,w,x). [w'@l,i,x]``
    (level 0 with w' = round(w*scale) for soft rules, level 1 with w' = 1
    for hard ones).  Hard rules pass through verbatim unless
    ``translate_hard`` is set."""
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    for rule in program.rules:
        bad = _first_unsafe(desugar_choice(rule))
        if bad is not None:
            raise UnsafeRuleError(rule.index, bad)

    rules: list[Rule] = []
    weak: list[WeakConstraint] = []
    nxt = 1

    def push(weight, head, body, is_choice=False):
        nonlocal nxt
        rules.append(Rule(nxt, weight, head, body, is_choice))
        nxt += 1

    for rule in program.rules:
        if rule.weight.is_hard and not translate_hard:
            push(HARD, rule.head, rule.body, rule.is_choice)
            continue
        r = desugar_choice(rule)
        marker = _marker_atom(UNSAT, r)
        not_head = tuple(Literal(h, 1) for h in r.head)
        push(HARD, (marker,), r.body + not_head)
        push(HARD, r.head, r.body + (Literal(marker, 1),))
        level = 1 if r.weight.is_hard else 0
        terms = (Term(str(r.index)),) + tuple(Term(v) for v in r.variables())
        weak.append(WeakConstraint((Literal(marker, 0),),
                                   _scaled(r.weight, scale), level, terms))
    return TranslatedProgram(tuple(rules), tuple(weak), scale, "penalty",
                             program.universe)


def _negate(lit: Literal) -> Literal:
    # not a -> not not a, not not a -> not a, a -> not a
    return Literal(lit.atom, 1 if lit.negation != 1 else 2)


def translate_reward(program: Program, scale: int = 1000) -> TranslatedProgram:
    """Per rule i: ``sat(i,w) :- h`` for each head disjunct, ``sat(i,w) :- L``
    for the negation of each body literal, ``Head :- Body, not not sat(i,w)``,
    and ``:~ sat(i,w). [-w'@l, i]``.  Only defined for ground programs; a
    fact contributes no negated-body rule, so its sat atom is derivable
    exactly when the fact's head holds."""
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    for rule in program.rules:
        if rule.variables():
            raise NonGroundProgramError(
                f"rule {rule.index} has variables; the reward translation "
                "needs a ground program")

    rules: list[Rule] = []
    weak: list[WeakConstraint] = []
    nxt = 1

    def push(head, body):
        nonlocal nxt
        rules.append(Rule(nxt, HARD, head, body))
        nxt += 1

    for rule in program.rules:
        r = desugar_choice(rule)
        marker = _marker_atom(SAT, r)
        for h in r.head:
            push((marker,), (Literal(h, 0),))
        for lit in r.body:
            push((marker,), (_negate(lit),))
        push(r.head, r.body + (Literal(marker, 2),))
        if r.weight.is_hard:
            weight, level = -scale, 1
        else:
            weight, level = -_scaled(r.weight, scale), 0
        weak.append(WeakConstraint((Literal(marker, 0),), weight, level,
                                   (Term(str(r.index)),)))
    return TranslatedProgram(tuple(rules), tuple(weak), scale, "reward",
                             program.universe)


def phi_extend(program: Program, interp: Interpretation, flavor: str) -> Interpretation:
    """The witness map between source stable models and translated ones:
    penalty adds ``unsat(i,w,c)`` for every ground instance the model
    violates, reward adds ``sat(i,w,c)`` for every instance it satisfies."""
    gp = ground(program)
    if flavor not in ("penalty", "reward"):
        raise ValueError(f"unknown flavor {flavor!r}")
    comp = _Compiled(gp.rules)
    violated, _ = comp.check(comp.bits_of(interp))
    return frozenset(interp) | _mask_markers(gp, comp, violated, flavor)


def _mask_markers(gp: GroundProgram, comp: _Compiled, violated: int, flavor: str) -> set[Atom]:
    """The markers of an interpretation that violates exactly the rules in
    the mask ``violated`` (bit k for ``gp.rules[k]``, as ``comp`` numbers
    them): ``unsat`` for the violated rules, ``sat`` for the others."""
    name = UNSAT if flavor == "penalty" else SAT
    return {_marker_of(gp.rules[k], name) for k in comp.counted(violated, flavor == "reward")}


def _marker_of(g: GroundRule, name: str) -> Atom:
    """The ``unsat`` or ``sat`` marker of one ground rule."""
    # subst is () exactly when the source rule has no variables
    return Atom(name, (Term(str(g.origin_index)), _weight_token(g.weight)) + g.subst)


def _ground_weak(tp: TranslatedProgram) -> list[WeakConstraint]:
    out = []
    for wc in tp.weak:
        variables: dict[str, None] = {}
        for lit in wc.body:
            for t in lit.atom.args:
                if t.is_variable:
                    variables.setdefault(t.name, None)
        for t in wc.terms:
            if t.is_variable:
                variables.setdefault(t.name, None)
        names = tuple(variables)
        if not names:
            out.append(wc)
            continue
        for combo in product(tp.source_universe, repeat=len(names)):
            binding = dict(zip(names, combo))
            out.append(WeakConstraint(
                tuple(l.substitute(binding) for l in wc.body),
                wc.weight, wc.level,
                tuple(binding.get(t.name, t) if t.is_variable else t for t in wc.terms)))
    return out


def _compile_weak(weak: list[WeakConstraint]) -> _Compiled:
    """Weak constraint k as the headless hard rule k, so that ``check``
    sets violation bit k exactly when the constraint's body holds."""
    return _Compiled([GroundRule(k, HARD, (), wc.body) for k, wc in enumerate(weak)])


def _penalties(weak: list[WeakConstraint], comp: _Compiled, interp: Interpretation,
               levels) -> tuple[int, ...]:
    """Per level of ``levels``, in that order, the summed weights of the
    constraints whose body ``interp`` satisfies; ``comp`` compiles ``weak``."""
    violated, _ = comp.check(comp.bits_of(interp))
    totals = dict.fromkeys(levels, 0)
    for k in _bit_indices(violated):
        if weak[k].level in totals:
            totals[weak[k].level] += weak[k].weight
    return tuple(totals.values())


def wc_penalty(tp: TranslatedProgram, interp: Interpretation, level: int) -> int:
    """Total penalty of an interpretation at one level: the summed weights
    of the level's ground weak constraints whose body it satisfies."""
    weak = _ground_weak(tp)
    return _penalties(weak, _compile_weak(weak), interp, (level,))[0]


def optimal_models(tp: TranslatedProgram, cap: int = DEFAULT_ATOM_CAP) -> list[Interpretation]:
    """Stable models of the translated rules whose weak-constraint penalties,
    highest level first, are the lexicographic minimum, in enumeration order."""
    gp = ground(Program(tp.rules), universe=tp.source_universe)
    models = enumerate_sm(gp, hard_mode="strict", cap=cap)
    weak = _ground_weak(tp)
    comp = _compile_weak(weak)
    levels = sorted({wc.level for wc in weak}, reverse=True)
    penalties = [_penalties(weak, comp, m, levels) for m in models]
    best = min(penalties, default=None)
    return [m for m, p in zip(models, penalties) if p == best]


def emit_asp_text(tp: TranslatedProgram) -> str:
    """Deterministic solver-dialect text: rules first, then weak constraints
    rendered ``:~ body. [w@l,i,X1,...]``."""
    lines = [str(r) for r in tp.rules]
    for wc in tp.weak:
        body = ", ".join(str(l) for l in wc.body)
        terms = ",".join(str(t) for t in wc.terms)
        lines.append(f":~ {body}. [{wc.weight}@{wc.level},{terms}]")
    return "".join(line + "\n" for line in lines)
