import functools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lpmln import asp_backend, fixture_path, grounder, ground, parse_program
from lpmln.asp_backend import (
    NonGroundProgramError, TranslatedProgram, WeakConstraint, emit_asp_text,
    optimal_models, phi_extend, translate_penalty, translate_reward, wc_penalty,
)
from lpmln.engine import EnumerationCapError, StableModelEnumerator, enumerate_sm
from lpmln.grounder import (
    EmptyUniverseError, GroundingCapError, GroundingError, UnsafeRuleError, ground_to_program,
)
from lpmln.inference import map_estimate, weight_penalty, weight_reward
from lpmln.model import HARD, Literal, Program, Rule, Term, atom
from helpers import P, random_program_text
from strategies import programs, safe_programs

BIRD = parse_program(fixture_path("bird.lpmln").read_text())
BIRD_RB = frozenset([atom("bird", "jo"), atom("residentbird", "jo")])
GOLDEN = Path(__file__).resolve().parent / "golden"


def _outcome(emit, prog, scale):
    """``emit(prog, scale)``'s text, or the type and message of its error."""
    try:
        return emit(prog, scale)
    except GroundingError as e:
        return type(e), str(e)


def _records_text(prog, scale):
    """The reward text through the records, or the type and message of the
    grounding error."""
    return _outcome(
        lambda p, s: emit_asp_text(translate_reward(ground_to_program(ground(p)), s)),
        prog, scale)


def translated_models(tp, cap=24):
    gp = ground(Program(tp.rules), universe=tp.source_universe)
    return enumerate_sm(gp, hard_mode="strict", cap=cap)


class TestTranslatePenalty:
    def test_bird_rule5_pattern(self):
        tp = translate_penalty(BIRD, 1000)
        texts = [str(r) for r in tp.rules]
        assert 'unsat(5,"1.000000") :- not migratorybird(jo).' in texts
        assert 'migratorybird(jo) :- not unsat(5,"1.000000").' in texts
        wc = [w for w in tp.weak if w.terms[0].name == "5"]
        assert len(wc) == 1 and wc[0].weight == 1000 and wc[0].level == 0

    def test_hard_rules_pass_through_verbatim(self):
        tp = translate_penalty(BIRD, 1000, translate_hard=False)
        assert str(tp.rules[2]) == ":- residentbird(X), migratorybird(X)."
        assert len(tp.weak) == 2

    def test_translate_hard_adds_level_one(self):
        tp = translate_penalty(BIRD, 1000, translate_hard=True)
        hard_wcs = [w for w in tp.weak if w.level == 1]
        assert len(hard_wcs) == 3
        assert all(w.weight == 1 for w in hard_wcs)
        assert any('unsat(3,"alpha",X)' in str(r) for r in tp.rules)

    def test_nonground_soft_rule_carries_variables(self):
        smoke = parse_program(fixture_path("smoke.lpmln").read_text())
        tp = translate_penalty(smoke, 1000)
        marker_rules = [r for r in tp.rules if r.head and r.head[0].predicate == "unsat"]
        assert len(marker_rules) == 1
        args = marker_rules[0].head[0].args
        assert args[0].name == "1" and args[1].name == '"1.000000"'
        assert sorted(t.name for t in args[2:]) == ["X", "Y"]
        assert tp.weak[0].terms[0].name == "1"
        assert len(tp.weak[0].terms) == 3

    def test_soft_constraint_pattern(self):
        tp = translate_penalty(P("5 :- disconnected(a, b).\n"), 1000)
        texts = [str(r) for r in tp.rules]
        assert 'unsat(1,"5.000000") :- disconnected(a,b).' in texts
        assert ':- disconnected(a,b), not unsat(1,"5.000000").' in texts

    def test_rejects_unsafe_and_bad_scale(self):
        with pytest.raises(UnsafeRuleError):
            translate_penalty(P("p(a).\n1 q(X) :- not p(X).\n"))
        with pytest.raises(ValueError):
            translate_penalty(BIRD, scale=0)

    def test_rejects_a_scaled_weight_out_of_range(self):
        with pytest.raises(ValueError) as exc:
            translate_penalty(parse_program("1.5 a."), 10 ** 400)
        assert str(exc.value) == f"1.5 at scale {10 ** 400} is out of range"
        # a hard weak constraint weighs 1 at any scale
        tp = translate_penalty(parse_program("a."), 10 ** 400, translate_hard=True)
        assert [(wc.weight, wc.level) for wc in tp.weak] == [(1, 1)]

    @pytest.mark.parametrize("text", [
        "p(a).\n1 q(X) :- not p(X).\n",
        "p(a).\nq(Y) :- p(X), not r(Y).\n2 {s(X)} :- not p(Z).\n",
        "p(a).\n{q(X)} :- not not p(Y).\n",
    ])
    def test_unsafe_error_is_grounds(self, text):
        # the same rule, variable and message as grounding the source
        with pytest.raises(UnsafeRuleError) as translated:
            translate_penalty(P(text))
        with pytest.raises(UnsafeRuleError) as grounded:
            ground(P(text))
        assert (translated.value.rule_index, translated.value.variable, str(translated.value)) \
            == (grounded.value.rule_index, grounded.value.variable, str(grounded.value))


class TestTranslateReward:
    def test_ground_soft_fact_pattern(self):
        tp = translate_reward(P("2 residentbird(jo).\n"), 1000)
        texts = [str(r) for r in tp.rules]
        assert texts == [
            'sat(1,"2.000000") :- residentbird(jo).',
            'residentbird(jo) :- not not sat(1,"2.000000").',
        ]
        assert tp.weak[0].weight == -2000 and tp.weak[0].level == 0

    def test_weight_tokens_keep_the_sign_of_zero(self):
        tp = translate_reward(P("0.0 a.\n-0.0 b.\n0 c.\n2 d.\n2 e.\n"), 1000)
        assert [str(wc.body[0]) for wc in tp.weak] == [
            'sat(1,"0.000000")', 'sat(2,"-0.000000")', 'sat(3,"0.000000")',
            'sat(4,"2.000000")', 'sat(5,"2.000000")']

    def test_fact_has_two_stable_models(self):
        # the translated program must preserve both models of a soft fact
        tp = translate_reward(P("2 a.\n"), 1000)
        models = translated_models(tp)
        assert {frozenset(str(x) for x in m) for m in models} == \
            {frozenset(), frozenset({"a", 'sat(1,"2.000000")'})}

    def test_hard_rule_level_one(self):
        tp = translate_reward(P("a :- b.\n"), 1000)
        assert tp.weak[0].level == 1 and tp.weak[0].weight == -1000

    def test_disjunctive_head_one_rule_per_disjunct(self):
        tp = translate_reward(P("1 a ; b.\n"), 1000)
        texts = [str(r) for r in tp.rules]
        assert 'sat(1,"1.000000") :- a.' in texts
        assert 'sat(1,"1.000000") :- b.' in texts

    def test_negated_body_literals(self):
        tp = translate_reward(P("1 a :- b, not c.\n"), 1000)
        texts = [str(r) for r in tp.rules]
        assert 'sat(1,"1.000000") :- not b.' in texts
        assert 'sat(1,"1.000000") :- not not c.' in texts

    def test_rejects_non_ground(self):
        with pytest.raises(NonGroundProgramError):
            translate_reward(P("p(a).\n1 q(X) :- p(X).\n"))
        with pytest.raises(NonGroundProgramError):
            translate_reward(P("q.\np :- q, X != a.\n"))

    def test_scale_then_groundness_errors(self):
        # the scale is checked first, then the first rule with variables
        prog = P("p(a).\nq(b) :- p(a), Y != a.\n1 q(X) :- p(X).\n")
        with pytest.raises(ValueError) as exc:
            translate_reward(prog, 0)
        assert str(exc.value) == "scale must be a positive integer"
        with pytest.raises(NonGroundProgramError) as exc:
            translate_reward(prog)
        assert str(exc.value) == \
            "rule 2 has variables; the reward translation needs a ground program"

    def test_ground_inequalities_decided_as_ground_decides_them(self):
        # a true inequality leaves the body, a false one drops the rule
        tp = translate_reward(P("p :- q, a != b.\nq.\n"))
        assert [str(r) for r in tp.rules] == [
            'sat(1,"alpha") :- p.',
            'sat(1,"alpha") :- not q.',
            'p :- q, not not sat(1,"alpha").',
            'sat(2,"alpha") :- q.',
            'q :- not not sat(2,"alpha").',
        ]
        assert [wc.terms for wc in tp.weak] == [(Term("1"),), (Term("2"),)]
        assert [sorted(map(str, m)) for m in optimal_models(tp)] == \
            [["p", "q", 'sat(1,"alpha")', 'sat(2,"alpha")']]
        tp = translate_reward(P("p :- q, a != a.\nq.\n"))
        assert [str(r) for r in tp.rules] == [
            'sat(2,"alpha") :- q.',
            'q :- not not sat(2,"alpha").',
        ]
        assert [wc.terms for wc in tp.weak] == [(Term("2"),)]
        assert [sorted(map(str, m)) for m in optimal_models(tp)] == [["q", 'sat(2,"alpha")']]
        assert tp.source_universe == (Term("a"),)


class TestPhiAndPenalties:
    def test_bird_phi_penalty(self):
        phi = phi_extend(BIRD, BIRD_RB, "penalty")
        extra = phi - BIRD_RB
        assert {str(a) for a in extra} == {'unsat(5,"1.000000")'}

    def test_bird_phi_reward(self):
        phi = phi_extend(BIRD, BIRD_RB, "reward")
        extra = {str(a) for a in phi - BIRD_RB}
        assert extra == {'sat(1,"alpha",jo)', 'sat(2,"alpha",jo)',
                         'sat(3,"alpha",jo)', 'sat(4,"2.000000")'}

    def test_phi_unknown_flavor_checked_before_grounding(self):
        unsafe = P("q(X) :- not p(X).\np(a).\n")
        with pytest.raises(ValueError, match="unknown flavor 'bogus'"):
            phi_extend(unsafe, frozenset(), "bogus")

    def test_phi_identity_when_everything_satisfied(self):
        prog = P("a.\n1 b :- a.\n")
        interp = frozenset([atom("a"), atom("b")])
        assert phi_extend(prog, interp, "penalty") == interp

    def test_wc_penalty_nonground_weak_constraints(self):
        smoke = parse_program(fixture_path("smoke.lpmln").read_text())
        tp = translate_penalty(smoke, 1000)
        nobody_else = phi_extend(smoke, frozenset([
            atom("smoke", "alice"), atom("influence", "alice", "bob"),
            atom("influence", "bob", "carol")]), "penalty")
        # exactly one ground instance of the soft rule is violated
        assert wc_penalty(tp, nobody_else, 0) == 1000
        everyone = phi_extend(smoke, frozenset([
            atom("smoke", "alice"), atom("smoke", "bob"), atom("smoke", "carol"),
            atom("influence", "alice", "bob"), atom("influence", "bob", "carol")]),
            "penalty")
        assert wc_penalty(tp, everyone, 0) == 0

    def test_wc_penalty_hand_built_constraints(self):
        # constraints no translation produces: not / not not bodies, body
        # atoms the interpretations lack, two levels, one non-ground
        a, b, c, d, e = (atom(x) for x in "abcde")
        weak = (
            WeakConstraint((Literal(a), Literal(b, 1)), 3, 0, (Term("1"),)),
            WeakConstraint((Literal(c, 2),), 5, 0, (Term("2"),)),
            WeakConstraint((Literal(d, 1),), 7, 1, (Term("3"),)),
            WeakConstraint((Literal(e),), 11, 1, (Term("4"),)),
            WeakConstraint((Literal(atom("p", "X")), Literal(atom("q", "X"), 1)), 2, 1,
                           (Term("5"), Term("X"))),
        )
        tp = TranslatedProgram((), weak, 1, "penalty", (Term("u"), Term("v")))
        cases = [
            (frozenset([a, c, atom("p", "u"), atom("z")]), 8, 9),
            (frozenset([a, b, c, d, atom("p", "u"), atom("p", "v"), atom("q", "u")]), 5, 2),
            (frozenset(), 0, 7),
            (frozenset([e, atom("p", "u"), atom("p", "v")]), 0, 22),
        ]
        for interp, level0, level1 in cases:
            assert wc_penalty(tp, interp, 0) == level0
            assert wc_penalty(tp, interp, 1) == level1
            assert wc_penalty(tp, interp, 2) == 0

    def test_weak_constraints_follow_asp_core_2(self):
        # a term variable must occur in the body, and each distinct
        # weight@level,terms tuple whose body holds is charged once
        a = atom("a")
        universe = (Term("u"), Term("v"), Term("w"))
        twice = WeakConstraint((Literal(a),), 1, 0, (Term("2"),))
        tp = TranslatedProgram((), (twice, twice), 1, "penalty", universe)
        assert wc_penalty(tp, frozenset([a]), 0) == 1
        assert wc_penalty(tp, frozenset(), 0) == 0
        loose = WeakConstraint((Literal(a),), 1, 0, (Term("1"), Term("Y")))
        tp = TranslatedProgram((), (loose, twice, twice), 1, "penalty", universe)
        with pytest.raises(UnsafeRuleError) as exc:
            wc_penalty(tp, frozenset([a]), 0)
        assert (exc.value.rule_index, exc.value.variable) == (1, "Y")
        with pytest.raises(UnsafeRuleError):
            optimal_models(tp)
        # the same tuple from two instances, a distinct one from a third
        p = lambda x: Literal(atom("p", x))
        same = WeakConstraint((p("X"),), 4, 0, (Term("7"),))
        own = WeakConstraint((p("X"),), 4, 0, (Term("7"), Term("X")))
        tp = TranslatedProgram((), (same, own), 1, "penalty", universe)
        assert wc_penalty(tp, frozenset([atom("p", "u"), atom("p", "v")]), 0) == 4 + 8

    def test_nonground_weak_constraint_needs_a_universe(self):
        body = (Literal(atom("p", "X")),)
        tp = TranslatedProgram((), (WeakConstraint(body, 1, 0, (Term("1"), Term("X"))),),
                               1, "penalty", ())
        with pytest.raises(EmptyUniverseError):
            wc_penalty(tp, frozenset(), 0)
        with pytest.raises(EmptyUniverseError):
            ground(Program((Rule(1, HARD, (), body),)), universe=())

    def test_wc_penalty_bird_answers(self):
        tp = translate_penalty(BIRD, 1000)
        assert wc_penalty(tp, phi_extend(BIRD, BIRD_RB, "penalty"), 0) == 1000
        assert wc_penalty(tp, phi_extend(BIRD, frozenset(), "penalty"), 0) == 3000
        assert wc_penalty(tp, BIRD_RB, 0) == 0

    def test_optimal_models_bird(self):
        tp = translate_penalty(BIRD, 1000)
        assert set(optimal_models(tp)) == {phi_extend(BIRD, BIRD_RB, "penalty")}

    def test_domination_order(self):
        # two models with level-0 penalties 1000 vs 2000 and equal level 1
        tp = translate_penalty(P("1 a.\n2 :- not a.\n"), 1000)
        models = translated_models(tp)
        assert len(models) == 2
        opt = optimal_models(tp)
        assert len(opt) == 1
        assert any(a.predicate == "a" for a in opt[0])

    def test_unsatisfiable_weak_constraint_keeps_everyone(self):
        # the unsat atom of a tautological rule is never derivable
        tp = translate_penalty(P("1 a :- a.\n{b}.\n"), 1000)
        assert len(optimal_models(tp)) == len(translated_models(tp))


class TestEmission:
    def test_bird_penalty_golden(self):
        tp = translate_penalty(BIRD, 1000)
        assert emit_asp_text(tp) == fixture_path("bird_pnt.golden.lp").read_text()

    @pytest.mark.parametrize("name", ["bird", "smoke"])
    def test_reward_golden(self, name):
        prog = parse_program(fixture_path(f"{name}.lpmln").read_text())
        tp = translate_reward(ground_to_program(ground(prog)), 1000)
        assert emit_asp_text(tp) == (GOLDEN / f"{name}_rwd.golden.lp").read_text()

    def test_edge_reward_golden(self):
        # a constraint, a disjunctive head, a choice, `not not`, a true and a
        # false ground inequality, weights 0.0, -0.0, hard and negative
        prog = parse_program((GOLDEN / "edge.lpmln").read_text())
        tp = translate_reward(ground_to_program(ground(prog)), 3)
        assert emit_asp_text(tp) == (GOLDEN / "edge_rwd.golden.lp").read_text()

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(programs(), st.sampled_from([1, 7, 1000]))
    def test_property_direct_reward_text_matches_records(self, prog, scale):
        # the text emit-asp-rwd renders from the source rules is the records',
        # and a program ground refuses it refuses alike
        assert _outcome(asp_backend._reward_text, prog, scale) == _records_text(prog, scale)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(safe_programs(), st.sampled_from([1, 7, 1000]))
    def test_property_direct_reward_text_matches_records_when_safe(self, prog, scale):
        # most unrestricted programs are unsafe: safe ones reach the rules
        # with variables, and so the text's columns
        assert _outcome(asp_backend._reward_text, prog, scale) == _records_text(prog, scale)

    @pytest.mark.parametrize("text", [
        ":- a != b.\n", "1.5 :- a != b.\n", "p(a).\n:- a != b.\n", ":- a != a.\n",
    ])
    def test_reward_text_of_rules_without_atoms(self, text):
        # a rule whose every body element is an inequality has no atom
        # occurrence, hence no text column: its one instance is still numbered
        prog = P(text)
        for scale in (1, 1000):
            got = asp_backend._reward_text(prog, scale)
            assert got == _records_text(prog, scale)
        assert asp_backend._reward_text(P(":- a != b.\n"), 1000) == (
            ':- not not sat(1,"alpha").\n:~ sat(1,"alpha"). [-1000@1,1]\n')

    def test_reward_text_pools_no_atom(self, monkeypatch, tmp_path):
        # every text is made from the universe's names: on a reach instance
        # the text is the records' with the pool closed
        bench = Path(__file__).resolve().parent.parent / "perfbench"
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        monkeypatch.syspath_prepend(str(bench))
        import workloads

        prog = parse_program(workloads.reach_instance(0)[0])
        expected = _records_text(prog, 1000)

        def closed(*args):
            raise AssertionError("an atom was pooled")
        monkeypatch.setattr(grounder._Pool, "get", closed)
        assert asp_backend._reward_text(prog, 1000) == expected
        assert len(expected.splitlines()) == workloads.reach_emit_lines()

    @pytest.mark.parametrize("text, cap, kind", [
        ("p(a).\nq(X) :- not p(X).\n", 100, UnsafeRuleError),
        ("p(X) :- q(X).\n", 100, EmptyUniverseError),
        ("n(a). n(b). n(c).\np(X, Y) :- n(X), n(Y).\n", 5, GroundingCapError),  # mid-rule
        ("n(a). n(b). n(c).\np(X, Y) :- n(X), n(Y).\n", 12, str),  # the cap met exactly
        # an inequality false under every substitution, and one false under one
        ("n(a). n(b).\np(X) :- n(X), X != X.\nq(X) :- n(X), X != a.\n", 100, str),
    ])
    def test_reward_text_errors_and_cap_match_ground(self, text, cap, kind):
        # the text path walks ground's substitutions: the same instances,
        # errors and cap
        prog = P(text)
        for scale in (1, 1000):
            got = _outcome(functools.partial(asp_backend._reward_text, cap=cap), prog, scale)
            assert got == _outcome(lambda p, s: emit_asp_text(translate_reward(
                ground_to_program(ground(p, cap=cap)), s)), prog, scale)
            assert type(got) is str if kind is str else got[0] is kind

    def test_empty_program(self):
        assert emit_asp_text(translate_penalty(P(""), 1000)) == ""
        assert emit_asp_text(translate_reward(P(""), 1000)) == ""

    def test_hard_only_verbatim(self):
        prog = P("a :- b.\n{c} :- a.\n:- c, b.\n")
        tp = translate_penalty(prog, 1000)
        assert emit_asp_text(tp) == "a :- b.\n{c} :- a.\n:- c, b.\n"

    def test_emission_deterministic_and_injective(self):
        rng = random.Random(77)
        seen = {}
        for k in range(40):
            text = random_program_text(rng, rng.randint(1, 5), rng.randint(1, 6))
            tp = translate_penalty(P(text), 1000, translate_hard=bool(k % 2))
            out = emit_asp_text(tp)
            assert out == emit_asp_text(tp)
            if tp in seen:
                assert seen[tp] == out
            else:
                assert out not in seen.values()
                seen[tp] = out


def _marker_weights(prog, extra_atoms):
    """Sum source-rule weights named by marker atoms, split (hard count, soft sum)."""
    by_index = {r.index: r for r in prog.rules}
    hard, soft = 0, 0.0
    for a in extra_atoms:
        rule = by_index[int(a.args[0].name)]
        if rule.weight.is_hard:
            hard += 1
        else:
            soft += rule.weight.value
    return hard, soft


class TestTheoremCorrespondences:
    """Bijection and weight identities between the source semantics and the
    translated optimization programs, plus the MAP correspondence."""

    def _check_penalty_case(self, prog):
        gp = ground(prog)
        source = enumerate_sm(gp, "relaxed")
        tp = translate_penalty(prog, 1000, translate_hard=True)
        image = {phi_extend(prog, i, "penalty"): i for i in source}
        translated = translated_models(tp)
        assert set(translated) == set(image)
        assert len(translated) == len(source)  # bijection
        for t in translated:
            i = image[t]
            hard, soft = _marker_weights(prog, t - i)
            wv = weight_penalty(gp, i)
            assert hard == wv.hard
            assert soft == pytest.approx(wv.soft, abs=1e-9)
        if source:
            best = set(map_estimate(gp, "relaxed").models)
            optimal = optimal_models(tp)
            assert {image[t] for t in optimal} == best

    def _check_reward_case(self, prog):
        gp = ground(prog)
        source = enumerate_sm(gp, "relaxed")
        tp = translate_reward(prog, 1000)
        image = {phi_extend(prog, i, "reward"): i for i in source}
        translated = translated_models(tp)
        assert set(translated) == set(image)
        assert len(translated) == len(source)
        for t in translated:
            i = image[t]
            hard, soft = _marker_weights(prog, t - i)
            wv = weight_reward(gp, i)
            assert hard == wv.hard
            assert soft == pytest.approx(wv.soft, abs=1e-9)
        if source:
            best = set(map_estimate(gp, "relaxed").models)
            optimal = optimal_models(tp)
            assert {image[t] for t in optimal} == best

    def test_penalty_random_programs(self):
        rng = random.Random(1234)
        for _ in range(60):
            prog = P(random_program_text(rng, rng.randint(1, 5), rng.randint(1, 5),
                                         allow_disjunction=True))
            self._check_penalty_case(prog)

    def test_reward_random_programs(self):
        rng = random.Random(4321)
        for _ in range(60):
            prog = P(random_program_text(rng, rng.randint(1, 5), rng.randint(1, 5),
                                         allow_disjunction=True))
            self._check_reward_case(prog)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(safe_programs(max_rules=3))
    def test_property_penalty_witness_bijection(self, prog):
        # the translated stable models are exactly the phi_extend images of
        # the source ones, one for one
        try:
            source = enumerate_sm(ground(prog), "relaxed", cap=12)
            tp = translate_penalty(prog, 1000, translate_hard=True)
            translated = translated_models(tp, cap=12)
        except (GroundingError, EnumerationCapError):
            assume(False)
        image = {phi_extend(prog, i, "penalty") for i in source}
        assert set(translated) == image
        assert len(translated) == len(source)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(safe_programs(max_rules=3))
    def test_property_reward_witness_bijection(self, prog):
        # the reward translation reads ground programs: the translated stable
        # models are the phi_extend images of the source ones, one for one
        try:
            gp = ground(prog)
            source = enumerate_sm(gp, "relaxed", cap=12)
            gprog = ground_to_program(gp)
            translated = translated_models(translate_reward(gprog, 1000), cap=12)
        except (GroundingError, EnumerationCapError):
            assume(False)
        image = {phi_extend(gprog, i, "reward") for i in source}
        assert set(translated) == image
        assert len(translated) == len(source)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(safe_programs(max_rules=3))
    def test_property_map_is_the_optimal_models(self, prog):
        # for both translations, the preimages of the optimal translated
        # models are the relaxed MAP models
        try:
            gp = ground(prog)
            source = enumerate_sm(gp, "relaxed", cap=12)
            gprog = ground_to_program(gp)
            cases = [(prog, "penalty", translate_penalty(prog, 1000, translate_hard=True)),
                     (gprog, "reward", translate_reward(gprog, 1000))]
            optimal = [optimal_models(tp, cap=12) for _, _, tp in cases]
        except (GroundingError, EnumerationCapError):
            assume(False)
        best = set(map_estimate(gp, "relaxed", cap=12).models)
        for (p, flavor, _), models in zip(cases, optimal):
            image = {phi_extend(p, i, flavor): i for i in source}
            assert {image[t] for t in models} == best, flavor

    def test_penalty_nonground_programs(self):
        self._check_penalty_case(BIRD)
        self._check_penalty_case(parse_program(fixture_path("smoke.lpmln").read_text()))

    def test_smoke_hard_round_trip_enumerates_derivable_atoms_only(self):
        # unsat markers of instances whose bodies nothing derives are not
        # free: 10 free atoms where all 17 used to be
        smoke = parse_program(fixture_path("smoke.lpmln").read_text())
        tp = translate_penalty(smoke, 1000, translate_hard=True)
        gp = ground(Program(tp.rules), universe=tp.source_universe)
        enum = StableModelEnumerator(gp, "strict")
        assert len(enum.free_positions) == 10
        assert len(enum.models_bits()) == 11
        assert optimal_models(tp) == [frozenset({
            atom("smoke", "alice"), atom("smoke", "bob"), atom("smoke", "carol"),
            atom("influence", "alice", "bob"), atom("influence", "bob", "carol")})]

    def test_optimal_models_are_the_undominated_models(self):
        # j dominates i: strictly lower penalty at some level, equal at
        # every higher one; optimal_models keeps exactly the undominated
        # translated models, in enumeration order
        def dominates(pj, pi, levels):
            return any(pj[l] < pi[l] and all(pj[h] == pi[h] for h in levels if h > l)
                       for l in levels)

        rng = random.Random(2468)
        seen = {"penalty": set(), "hard": set(), "reward": set()}
        for _ in range(40):
            prog = P(random_program_text(rng, rng.randint(1, 4), rng.randint(1, 5),
                                         allow_disjunction=True))
            for kind, tp in (("penalty", translate_penalty(prog, 1000)),
                             ("hard", translate_penalty(prog, 1000, translate_hard=True)),
                             ("reward", translate_reward(prog, 1000))):
                levels = sorted({wc.level for wc in tp.weak})
                seen[kind].add(tuple(levels))
                models = translated_models(tp)
                pen = [{l: wc_penalty(tp, m, l) for l in levels} for m in models]
                expected = [m for i, m in enumerate(models)
                            if not any(dominates(pen[j], pen[i], levels)
                                       for j in range(len(models)))]
                assert optimal_models(tp) == expected
        assert (0,) in seen["penalty"] and (0, 1) in seen["hard"] and (0, 1) in seen["reward"]
