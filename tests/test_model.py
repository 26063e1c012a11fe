import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from lpmln import (
    HARD, Program, Rule, atom, desugar_choice, fixture_path, ground,
    herbrand_base, merge_programs, soft,
)
from lpmln.grounder import ground_to_program
from lpmln.model import Literal, Term, Weight, _choice_marker, const, format_rule, var
from helpers import P
from strategies import programs


def reference_universe(program: Program) -> tuple:
    """The constants of every term occurrence, sorted by name."""
    consts = {}
    for r in program.rules:
        terms = [t for a in r.head for t in a.args]
        for el in r.body:
            terms += el.atom.args if isinstance(el, Literal) else (el.lhs, el.rhs)
        consts.update((t.name, t) for t in terms if not t.name[:1].isupper())
    return tuple(consts[name] for name in sorted(consts))


class TestHerbrandBase:
    def test_bird(self):
        base = herbrand_base(P("bird(X) :- residentbird(X).\n"
                               "bird(X) :- migratorybird(X).\n"
                               "2 residentbird(jo).\n"
                               "1 migratorybird(jo).\n"))
        assert set(base) == {atom("bird", "jo"), atom("residentbird", "jo"),
                             atom("migratorybird", "jo")}

    def test_empty_program(self):
        assert herbrand_base(Program()) == ()

    def test_smoke_counts(self):
        # smoke/1 over 3 constants plus influence/2: 3 + 9 = 12
        base = herbrand_base(P("1 smoke(Y) :- smoke(X), influence(X, Y).\n"
                               "smoke(alice). influence(alice, bob). influence(bob, carol).\n"))
        assert len(base) == 12

    def test_size_matches_arity_formula(self):
        rng = random.Random(7)
        for _ in range(30):
            n_const = rng.randint(1, 3)
            consts = [f"c{k}" for k in range(n_const)]
            lines = []
            schemas = set()
            for k in range(rng.randint(1, 5)):
                arity = rng.randint(0, 2)
                pred = f"p{k}_{arity}"
                schemas.add((pred, arity))
                args = ",".join(rng.choice(consts) for _ in range(arity))
                lines.append(f"{pred}({args})." if arity else f"{pred}.")
            prog = P("\n".join(lines) + "\n")
            used = len(prog.universe)
            expected = sum(used ** a for _, a in prog.signature)
            assert len(herbrand_base(prog)) == expected

    def test_deterministic_order(self):
        prog = P("p(a). p(b). q(b, a).\n")
        assert herbrand_base(prog) == herbrand_base(prog)


class TestDesugarChoice:
    def test_clique_choice_rule(self):
        rule = P("{in(X)} :- node(X).\n").rules[0]
        out = desugar_choice(rule)
        assert not out.is_choice
        assert [str(el) for el in out.body] == ["node(X)", "not not in(X)"]
        assert out.head == rule.head

    def test_empty_body(self):
        out = desugar_choice(P("{a}.\n").rules[0])
        assert [str(el) for el in out.body] == ["not not a"]

    def test_non_choice_identity(self):
        rule = P("a :- b.\n").rules[0]
        assert desugar_choice(rule) is rule

    def test_idempotent_preserves_index_and_weight(self):
        rule = P("2.5 {a} :- b.\n").rules[0]
        once = desugar_choice(rule)
        assert desugar_choice(once) == once
        assert once.index == rule.index
        assert once.weight == rule.weight

    def test_choice_marker_finds_the_desugared_literal(self):
        out = desugar_choice(P("{p(X)} :- q(X).\n").rules[0])
        assert _choice_marker(out) == 1
        assert str(out.body[_choice_marker(out)]) == "not not p(X)"
        assert _choice_marker(ground(P("{a}.\n")).rules[0]) == 0

    def test_choice_marker_none_without_the_shape(self):
        assert _choice_marker(P("p(X) ; r :- q(X), not not p(X).\n").rules[0]) is None
        assert _choice_marker(P("p(X) :- q(X), not p(X).\n").rules[0]) is None
        assert _choice_marker(P("p(X) :- q(X), not not q(X).\n").rules[0]) is None

    def test_choice_marker_skips_inequalities(self):
        assert _choice_marker(P("p(X) :- X != a, not not p(X).\n").rules[0]) == 1
        assert _choice_marker(P("p(X) :- q(X), X != a.\n").rules[0]) is None


class TestProgramInvariants:
    def test_choice_head_cardinality(self):
        with pytest.raises(ValueError):
            Rule(1, HARD, (atom("a"), atom("b")), (), is_choice=True)

    def test_unique_indices(self):
        r = Rule(1, soft(1.0), (atom("a"),))
        with pytest.raises(ValueError):
            Program((r, r))

    def test_merge_renumbers(self):
        main = P("a. b :- a.\n")
        extra = P(":- not b.\nc.\n")
        merged = merge_programs(main, extra)
        assert [r.index for r in merged.rules] == [1, 2, 3, 4]
        assert merged.rules[2].is_constraint

    def test_universe_is_sorted_constants(self):
        prog = P("p(zeta, alpha). q(9).\n")
        assert [t.name for t in prog.universe] == ["9", "alpha", "zeta"]

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(programs(max_rules=6))
    def test_property_universe_is_every_occurring_constant(self, prog):
        assert prog.universe == reference_universe(prog)

    @pytest.mark.parametrize("name", ["bird.lpmln", "smoke.lpmln", "clique10.lpmln"])
    def test_universe_of_a_ground_program(self, name):
        # pooled atoms, each occurring in many rules
        prog = ground_to_program(ground(P(fixture_path(name).read_text())))
        assert prog.universe == reference_universe(prog)


class TestAtomHash:
    def test_hash_is_the_field_tuple_hash(self):
        a = atom("edge", "n0", "n1")
        assert hash(a) == hash(("edge", a.args)) == hash(a)
        assert hash(atom("p")) == hash(("p", ()))

    def test_cached_hash_does_not_survive_pickling(self):
        a = atom("smoke", "alice")
        hash(a)
        for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
            assert vars(b) == {"predicate": "smoke", "args": a.args}
            assert b == a and hash(b) == hash(a)

    @pytest.mark.parametrize("make", [
        lambda: atom("smoke", "alice"),
        lambda: Literal(atom("influence", "alice", "bob"), 2),
    ], ids=["atom", "literal"])
    def test_cached_text_does_not_survive_pickling(self, make):
        obj, other = make(), atom("a")
        other = other if hasattr(obj, "args") else Literal(other, 1)
        fields = dict(vars(obj))
        text, h = str(obj), hash(obj)
        assert vars(obj)["_text"] == text
        for b in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
            assert vars(b) == fields
            assert b == obj and hash(b) == h and str(b) == text
            assert (b < other, other < b) == (obj < other, other < obj)
            assert sorted([other, b]) == sorted([obj, other])


class TestConstructorContracts:
    """The constructors' results and error messages."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_soft_weights_must_be_finite(self, value):
        with pytest.raises(ValueError, match="^soft weights must be finite$"):
            Weight(value)

    # a bool, a string or a complex number is refused when the weight is
    # built, not when a sum or a printer meets it later
    @pytest.mark.parametrize("value", [True, False, "2", "1.5", 1j])
    def test_soft_weights_must_be_real_numbers(self, value):
        with pytest.raises(ValueError) as exc:
            Weight(value)
        assert str(exc.value) == f"soft weights must be real numbers: {value!r}"

    def test_an_int_past_the_float_range_is_not_finite(self):
        with pytest.raises(ValueError, match="^soft weights must be finite$"):
            Weight(10 ** 400)

    def test_soft_weights_are_stored_as_floats(self):
        assert Weight(2) == Weight(2.0) == soft(2)
        assert type(Weight(2).value) is float and Weight(2).value.is_integer()
        assert str(Weight(2)) == "2.0" and str(Weight(Fraction(1, 4))) == "0.25"
        assert format_rule(Rule(1, Weight(-3), (atom("a"),))) == "-3.0 a."

    def test_negation_depth(self):
        with pytest.raises(ValueError) as exc:
            Literal(atom("a"), 3)
        assert str(exc.value) == "negation depth must be 0, 1, or 2: 3"

    def test_terms_by_spelling(self):
        assert var("X") == Term("X") and const(3) == Term("3")
        with pytest.raises(ValueError, match="^not a variable name: 'x'$"):
            var("x")
        with pytest.raises(ValueError, match="^not a constant name: 'X'$"):
            const("X")

    def test_weight_text_and_arity(self):
        assert str(HARD) == "alpha" and str(soft(1.5)) == "1.5"
        assert atom("p", "a", "b").arity == 2

    def test_missing_fixture(self):
        with pytest.raises(FileNotFoundError) as exc:
            fixture_path("nope")
        assert str(exc.value) == "no such fixture: nope"
