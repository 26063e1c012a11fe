"""Hypothesis strategies for programs built from the model's constructors.

Kept apart from ``helpers``: the benchmark imports ``helpers`` as its
referee, and hypothesis is a test-only dependency.
"""

from __future__ import annotations

from hypothesis import strategies as st

from lpmln.model import Atom, Inequality, Literal, Program, Rule, Term, Weight

_PREDICATES = (("z", 0), ("q", 1), ("r", 2))
# constants spelt as identifiers, integers and quoted strings; "k" and "-7"
# occur only in inequalities
_ATOM_TERMS = ("X", "Y", "a", "b1", "0", '"c d"')
_INEQUALITY_TERMS = _ATOM_TERMS + ("k", "-7")
_WEIGHTS = st.one_of(
    st.none(), st.sampled_from([1.5, -2.0, 0.25, -0.028801991603851305]),
    st.floats(-1e3, 1e3), st.integers(-1000, 1000).map(float))

_atoms = st.sampled_from(_PREDICATES).flatmap(lambda pa: st.builds(
    Atom, st.just(pa[0]),
    st.tuples(*[st.sampled_from(_ATOM_TERMS).map(Term)] * pa[1])))
_elements = st.one_of(
    st.builds(Literal, _atoms, st.sampled_from([0, 1, 2])),
    st.builds(Inequality, *[st.sampled_from(_INEQUALITY_TERMS).map(Term)] * 2))


@st.composite
def rules(draw, index: int) -> Rule:
    """A constraint, or a rule with a plain, choice or two-atom disjunctive
    head, over 0-, 1- and 2-ary atoms; up to three body elements, each a
    literal under 0-2 negations or an inequality; hard or soft.  Safety is
    not enforced."""
    kind = draw(st.sampled_from(["constraint", "plain", "choice", "disjunction"]))
    n_head = {"constraint": 0, "disjunction": 2}.get(kind, 1)
    head = tuple(draw(_atoms) for _ in range(n_head))
    body = draw(st.lists(_elements, min_size=0 if head else 1, max_size=3))
    return Rule(index, Weight(draw(_WEIGHTS)), head, tuple(body), kind == "choice")


@st.composite
def programs(draw, max_rules: int = 4) -> Program:
    n = draw(st.integers(0, max_rules))
    return Program(tuple(draw(rules(k)) for k in range(1, n + 1)))


def _made_safe(rule: Rule) -> Rule:
    """``rule`` with a positive body literal ``q(V)`` for each variable ``V``
    that no positive body literal binds, so that it is safe."""
    bound = {t.name for el in rule.body if isinstance(el, Literal) and el.negation == 0
             for t in el.atom.args if t.is_variable}
    extra = tuple(Literal(Atom("q", (Term(v),))) for v in rule.variables() if v not in bound)
    return Rule(rule.index, rule.weight, rule.head, rule.body + extra, rule.is_choice)


def safe_programs(max_rules: int = 4):
    """``programs`` with every rule made safe by ``_made_safe``."""
    return programs(max_rules).map(lambda p: Program(tuple(map(_made_safe, p.rules))))
