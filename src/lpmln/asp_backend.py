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

from collections.abc import Iterable
from dataclasses import dataclass

from .engine import DEFAULT_ATOM_CAP, StableModelEnumerator, _bit_indices, _Compiled
from .grounder import (
    DEFAULT_GROUND_CAP, GroundProgram, GroundRule, UnsafeRuleError, _desugar_safe, _Pool, _walk,
    ground,
)
from .inference import _check_scale, _scaled
from .model import (
    HARD, Atom, Interpretation, Literal, Program, Rule, Term, Weight, _Memo, _rule_line,
    format_rule,
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


def _marker(name: str, index: int, token: Term, terms: tuple[Term, ...]) -> Atom:
    """The marker ``name(index, token, terms...)``; ``token`` is a weight's
    ``_weight_token``."""
    return Atom(name, (Term(str(index)), token) + terms)


def translate_penalty(program: Program, scale: int = 1000,
                      translate_hard: bool = False) -> TranslatedProgram:
    """Per translated rule i: ``unsat(i,w,x) :- Body, not Head``,
    ``Head :- Body, not unsat(i,w,x)``, and ``:~ unsat(i,w,x). [w'@l,i,x]``
    (level 0 with w' = round(w*scale) for soft rules, level 1 with w' = 1
    for hard ones).  Hard rules pass through verbatim unless
    ``translate_hard`` is set."""
    _check_scale(scale)
    rules: list[Rule] = []
    weak: list[WeakConstraint] = []
    nxt = 1

    def push(weight, head, body, is_choice=False):
        nonlocal nxt
        rules.append(Rule(nxt, weight, head, body, is_choice))
        nxt += 1

    for rule, r in zip(program.rules, _desugar_safe(program).rules):
        if rule.weight.is_hard and not translate_hard:
            push(HARD, rule.head, rule.body, rule.is_choice)
            continue
        variables = tuple(Term(v) for v in r.variables())
        marker = _marker(UNSAT, r.index, _weight_token(r.weight), variables)
        not_head = tuple(Literal(h, 1) for h in r.head)
        push(HARD, (marker,), r.body + not_head)
        push(HARD, r.head, r.body + (Literal(marker, 1),))
        weight = 1 if r.weight.is_hard else _scaled(r.weight.value, scale)
        weak.append(WeakConstraint((Literal(marker, 0),), weight,
                                   int(r.weight.is_hard), (Term(str(r.index)),) + variables))
    return TranslatedProgram(tuple(rules), tuple(weak), scale, "penalty",
                             program.universe)


def _negate(lit: Literal) -> Literal:
    # not a -> not not a, not not a -> not a, a -> not a
    return Literal(lit.atom, 1 if lit.negation != 1 else 2)


def _reward_rule(w: Weight, scale: int) -> tuple[Term, int, int]:
    """The reward translation's decisions for a rule of weight ``w``: the
    weight token of its ``sat`` markers, and its weak constraint's weight
    and level.  The sat bodies are each head atom, then ``_negate`` of each
    body literal."""
    if w.is_hard:
        return _weight_token(w), -scale, 1
    return _weight_token(w), -_scaled(w.value, scale), 0


def translate_reward(program: Program, scale: int = 1000) -> TranslatedProgram:
    """Per rule i: ``sat(i,w) :- h`` for each head disjunct, ``sat(i,w) :- L``
    for the negation of each body literal, ``Head :- Body, not not sat(i,w)``,
    and ``:~ sat(i,w). [-w'@l, i]``.  Only defined for ground programs,
    which are translated as ``ground`` leaves them: choices desugared, a
    true inequality out of the body, a rule with a false one dropped.  A
    fact contributes no negated-body rule, so its sat atom is derivable
    exactly when the fact's head holds."""
    _check_scale(scale)
    for r in program.rules:
        if r.variables():
            raise NonGroundProgramError(
                f"rule {r.index} has variables; the reward translation "
                "needs a ground program")
    # one instance per ground rule at most: the cap cannot trip
    gp = ground(program, cap=len(program.rules))
    rules: list[Rule] = []
    weak: list[WeakConstraint] = []
    for g in gp.rules:
        token, weight, level = _reward_rule(g.weight, scale)
        marker = _marker(SAT, g.origin_index, token, ())
        sat_head = (marker,)
        for b in [Literal(h, 0) for h in g.head] + [_negate(lit) for lit in g.body]:
            rules.append(Rule(len(rules) + 1, HARD, sat_head, (b,)))
        rules.append(Rule(len(rules) + 1, HARD, g.head, (*g.body, Literal(marker, 2))))
        weak.append(WeakConstraint((Literal(marker, 0),), weight, level, (marker.args[0],)))
    return TranslatedProgram(tuple(rules), tuple(weak), scale, "reward",
                             program.universe)


def _body_texts(lit: Literal) -> tuple[str, str]:
    """A body literal's text, and the text of its negation (its sat body)."""
    return str(lit), str(_negate(lit))


def _reward_template(n_head: int, n_body: int) -> str:
    """The format string of the rules of one instance of a rule with
    ``n_head`` head atoms and ``n_body`` body literals, one per line: field
    0 is the instance's marker, the next ``n_head`` the head atoms' texts
    and the rest the body literals' ``_body_texts``."""
    heads = [f"{{{i}}}" for i in range(1, n_head + 1)]
    body = range(n_head + 1, n_head + n_body + 1)
    sat_bodies = heads + [f"{{{j}[1]}}" for j in body]
    # the guard is the marker under ``not not``
    guarded = [f"{{{j}[0]}}" for j in body] + ["not not {0}"]
    return "\n".join([_rule_line(("{0}",), (b,)) for b in sat_bodies]
                     + [_rule_line(heads, guarded)])


def _reward_text(program: Program, scale: int, cap: int = DEFAULT_GROUND_CAP) -> str:
    """``emit_asp_text(translate_reward(ground_to_program(ground(program,
    cap)), scale))``, with ``ground``'s errors, rendered per source rule
    from its compiled occurrences: the rule's decisions and line template
    are made once, each occurrence's texts once per instance key, and each
    substitution fills the template with its marker, numbered from 1 in
    ``ground``'s order.  No ground rule, marker atom or translated record
    is built; ``scale`` is checked by the caller."""
    lines: list[str] = []
    weak: list[str] = []
    n = 0
    # per _Instances, which _walk shares among alike occurrences, the texts
    # of ``form`` of its instances, by the same key
    memos: dict[int, _Memo] = {}

    def memo(made, form) -> _Memo:
        texts = memos.get(id(made))
        if texts is None:
            texts = memos[id(made)] = _Memo(lambda key: form(made[key]))
        return texts
    for rule, heads, body, combos in _walk(program, _Pool(program.universe), cap):
        token, weight, level = _reward_rule(rule.weight, scale)
        fill = _reward_template(len(heads), len(body)).format
        fill_weak = _weak_line(("{0}",), weight, level, ("{1}",)).format
        slots = ([(key, memo(made, str)) for key, made in heads]
                 + [(key, memo(made, _body_texts)) for key, made in body])
        for _, ids in combos:
            n += 1
            m = f"{SAT}({n},{token})"  # the marker sat(n, token), as Atom.__str__ writes it
            lines.append(fill(m, *[texts[key(ids)] for key, texts in slots]))
            weak.append(fill_weak(m, n))
    lines += weak
    lines.append("")  # every line ends in a newline
    return "\n".join(lines)


def phi_extend(program: Program, interp: Interpretation, flavor: str) -> Interpretation:
    """The witness map between source stable models and translated ones:
    penalty adds ``unsat(i,w,c)`` for every ground instance the model
    violates, reward adds ``sat(i,w,c)`` for every instance it satisfies."""
    if flavor not in ("penalty", "reward"):
        raise ValueError(f"unknown flavor {flavor!r}")
    gp = ground(program)
    comp = _Compiled(gp)
    violated = comp.violated(comp.bits_of(interp))
    return frozenset(interp) | _mask_markers(gp, comp, violated, flavor)


def _mask_markers(gp: GroundProgram, comp: _Compiled, violated: int, flavor: str) -> set[Atom]:
    """The markers of an interpretation that violates exactly the rules in
    the mask ``violated`` (bit k for ``gp.rules[k]``, as ``comp`` numbers
    them): ``unsat`` for the violated rules, ``sat`` for the others."""
    name = UNSAT if flavor == "penalty" else SAT
    counted = comp.counted(violated, flavor == "reward")
    return {_marker_of(gp.rules[k], name) for k in _bit_indices(counted)}


def _marker_of(g: GroundRule, name: str) -> Atom:
    """The ``unsat`` or ``sat`` marker of one ground rule."""
    # subst is () exactly when the source rule has no variables
    return _marker(name, g.origin_index, _weight_token(g.weight), g.subst)


def _ground_weak(tp: TranslatedProgram) -> tuple[GroundProgram, list[tuple[int, int, tuple]]]:
    """Weak constraint k as the headless soft rule k + 1 of weight 0.0,
    ground by ``ground`` over the source universe, so that ground instance
    j is violated exactly when its body holds; with instance j's ``(weight,
    level, terms)`` tuple.  Being soft and headless, the rules change
    neither which interpretations are stable nor which atoms are free.  As
    in ASP-Core-2, a term variable must occur in the body."""
    rules, names = [], []
    for k, wc in enumerate(tp.weak, start=1):
        rules.append(Rule(k, Weight(0.0), (), wc.body))
        names.append(rules[-1].variables())
        for t in wc.terms:
            if t.is_variable and t.name not in names[-1]:
                raise UnsafeRuleError(k, t.name)
    gp = ground(Program(tuple(rules)), universe=tp.source_universe)
    tuples = []
    for g in gp.rules:
        wc = tp.weak[g.origin_index - 1]
        binding = dict(zip(names[g.origin_index - 1], g.subst))
        tuples.append((wc.weight, wc.level,
                       tuple(binding[t.name] if t.is_variable else t for t in wc.terms)))
    return gp, tuples


def _penalties(tuples: list[tuple[int, int, tuple]], violated: int, levels) -> tuple[int, ...]:
    """Per level of ``levels``, in that order, the summed weights of the
    distinct ``(weight, level, terms)`` tuples (``_ground_weak``'s second
    result) of the ground weak constraints in the mask ``violated``."""
    totals = dict.fromkeys(levels, 0)
    for weight, level, _ in {tuples[j] for j in _bit_indices(violated)}:
        if level in totals:
            totals[level] += weight
    return tuple(totals.values())


def wc_penalty(tp: TranslatedProgram, interp: Interpretation, level: int) -> int:
    """Total penalty of an interpretation at one level: the summed weights
    of the level's distinct ground weak-constraint tuples whose body it
    satisfies."""
    weak, tuples = _ground_weak(tp)
    comp = _Compiled(weak)
    return _penalties(tuples, comp.violated(comp.bits_of(interp)), (level,))[0]


def optimal_models(tp: TranslatedProgram, cap: int = DEFAULT_ATOM_CAP) -> list[Interpretation]:
    """Stable models of the translated rules whose weak-constraint penalties,
    highest level first, are the lexicographic minimum, in enumeration order.
    The weak constraints are enumerated with the rules, after them, so the
    high bits of each violation mask are the model's weak violations."""
    gp = ground(Program(tp.rules), universe=tp.source_universe)
    weak, tuples = _ground_weak(tp)
    enum = StableModelEnumerator(GroundProgram(gp.rules + weak.rules), hard_mode="strict",
                                 cap=cap)
    models = enum.models_bits()
    levels = sorted({level for _, level, _ in tuples}, reverse=True)
    penalties = [_penalties(tuples, v >> len(gp), levels) for v in enum.violations]
    best = min(penalties, default=None)
    return [enum.comp.interp_of(b) for b, p in zip(models, penalties) if p == best]


def _weak_line(body: Iterable[str], weight: int, level: int, terms: Iterable[str]) -> str:
    """The line of a weak constraint from the texts of its body elements and
    terms."""
    return f":~ {', '.join(body)}. [{weight}@{level},{','.join(terms)}]"


def emit_asp_text(tp: TranslatedProgram) -> str:
    """Deterministic solver-dialect text: rules first, then weak constraints
    rendered ``:~ body. [w@l,i,X1,...]``."""
    lines = list(map(format_rule, tp.rules))
    for wc in tp.weak:
        lines.append(_weak_line(map(str, wc.body), wc.weight, wc.level, map(str, wc.terms)))
    lines.append("")  # every line ends in a newline
    return "\n".join(lines)
