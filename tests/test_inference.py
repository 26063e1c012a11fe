import copy
import math
import pickle
import random

import pytest
from hypothesis import assume, given, settings

from lpmln import engine, fixture_path, ground, parse_evidence, parse_program
from lpmln.asp_backend import phi_extend
from lpmln.engine import DEFAULT_ATOM_CAP, EnumerationCapError, StableModelEnumerator
from lpmln.grounder import GroundingError
from lpmln.inference import (
    InconsistentEvidenceError, NoStableModelsError, UnknownPredicateWarning,
    WeightVector, _TIE_EPS, _classes, _weigh_models, _weights, conditional, distribution,
    map_estimate, marginal, weight_penalty, weight_reward,
)
from lpmln.model import Atom, Term, atom, atom_sort_key
from helpers import (
    P, _classically_satisfies, _powerset, grid_weight, integer_weight, random_program_text,
    random_text_with_facts,
)
from strategies import safe_programs


def bird_gp():
    return ground(parse_program(fixture_path("bird.lpmln").read_text()))


BIRD_RB = frozenset([atom("bird", "jo"), atom("residentbird", "jo")])
BIRD_MB = frozenset([atom("bird", "jo"), atom("migratorybird", "jo")])


class TestWeightVectors:
    def test_smoke_all_smokers(self):
        gp = ground(parse_program(fixture_path("smoke.lpmln").read_text()))
        all_true = frozenset([
            atom("smoke", "alice"), atom("smoke", "bob"), atom("smoke", "carol"),
            atom("influence", "alice", "bob"), atom("influence", "bob", "carol"),
        ])
        wv = weight_reward(gp, all_true)
        assert wv.hard == 3
        assert wv.soft == pytest.approx(9.0)

    def test_bird_reward(self):
        wv = weight_reward(bird_gp(), BIRD_RB)
        assert (wv.hard, wv.soft) == (3, pytest.approx(2.0))

    def test_bird_penalty(self):
        gp = bird_gp()
        assert weight_penalty(gp, BIRD_RB).soft == pytest.approx(1.0)
        assert weight_penalty(gp, BIRD_RB).hard == 0
        assert weight_penalty(gp, frozenset()).soft == pytest.approx(3.0)
        assert weight_penalty(gp, BIRD_RB | BIRD_MB).hard == 1  # constraint violated

    def test_empty_program(self):
        gp = ground(P(""))
        assert weight_reward(gp, frozenset()) == weight_penalty(gp, frozenset())

    def test_single_interpretation_weighing_compiles_once(self, monkeypatch):
        # the compiled form is kept on the ground program, and never travels
        gp = bird_gp()
        uncached = [weight_reward(copy.copy(gp), BIRD_RB), weight_penalty(copy.copy(gp), BIRD_RB)]
        built = []

        class Counting(engine._Compiled):
            def __init__(self, g):
                built.append(g)
                super().__init__(g)
        monkeypatch.setattr(engine, "_Compiled", Counting)
        assert [weight_reward(gp, BIRD_RB), weight_penalty(gp, BIRD_RB)] == uncached
        assert built == [gp] and "_compiled" in gp.__dict__
        for clone in (pickle.loads(pickle.dumps(gp)), copy.copy(gp), copy.deepcopy(gp)):
            assert "_compiled" not in clone.__dict__
            assert clone == gp and clone.atoms == gp.atoms


class TestWeightsAndMarkersAgainstOracle:
    """Both weight vectors and both witness marker sets, against counts
    built rule by rule with the oracle's classical satisfaction check."""

    @staticmethod
    def expected(program, gp, interp):
        """[hard count, soft sum, marker args] over the satisfied instances
        and over the violated ones."""
        variables = {r.index: r.variables() for r in program.rules}
        sat, unsat = [0, 0.0, set()], [0, 0.0, set()]
        for g in gp.rules:
            entry = sat if _classically_satisfies(interp, g) else unsat
            if g.is_hard:
                entry[0] += 1
            else:
                entry[1] += g.weight.value
            token = '"alpha"' if g.is_hard else f'"{g.weight.value:.6f}"'
            args = (Term(str(g.origin_index)), Term(token))
            entry[2].add(args + g.subst if variables[g.origin_index] else args)
        return sat, unsat

    def check(self, program, interps):
        gp = ground(program)
        for interp in interps:
            sat, unsat = self.expected(program, gp, interp)
            assert weight_penalty(gp, interp) == WeightVector(unsat[0], unsat[1])
            assert weight_reward(gp, interp) == WeightVector(sat[0], sat[1])
            assert phi_extend(program, interp, "penalty") == \
                interp | {Atom("unsat", a) for a in unsat[2]}
            assert phi_extend(program, interp, "reward") == \
                interp | {Atom("sat", a) for a in sat[2]}

    @pytest.mark.parametrize("seed", range(6))
    def test_random_programs(self, seed):
        # whole-number weights are weighed by class, the others rule by rule
        rng = random.Random(seed)
        for weight in (grid_weight, integer_weight):
            for _ in range(10):
                program = P(random_program_text(rng, rng.randint(1, 4), rng.randint(1, 7),
                                                allow_disjunction=True, weight=weight))
                self.check(program, [frozenset(s) for s in _powerset(ground(program).atoms)])

    @pytest.mark.parametrize("name", ["bird.lpmln", "smoke.lpmln"])
    def test_nonground_fixtures(self, name):
        rng = random.Random(name)
        program = parse_program(fixture_path(name).read_text())
        atoms = ground(program).atoms
        self.check(program, [frozenset(a for a in atoms if rng.random() < 0.5)
                             for _ in range(40)])


class TestExactWeighing:
    """Programs whose soft weights are whole numbers adding up to less than
    2**53 in absolute value are weighed one popcount per distinct weight;
    the totals are the floats of the walk rule by rule, in rule order."""

    @staticmethod
    def walked(gp, interp, mode: str) -> float:
        total = 0.0
        for g in gp.rules:
            if not g.is_hard and _classically_satisfies(interp, g) == (mode == "reward"):
                total += g.weight.value
        return total

    @pytest.mark.parametrize("text, atoms", [
        ("-0.0 a.\n-0.0 b.\n", ""),  # a weight of -0.0, counted twice
        ("-0.0 a.\n-0.0 b.\n", "a"),
        ("-5 a.\n", "a"),  # penalty counts -5 zero times: -5.0 * 0 is -0.0
        ("-5 a.\n", ""),  # and so does reward
        ("-5 a.\n5 b.\n", ""),  # -5 + 5 is +0.0
        # mixed: the walk gives 1.2000000000000002, a grouping 0.1 * 2 + 1.0 = 1.2
        ("0.1 a.\n1 b.\n0.1 c.\n", ""),
        # the walk gives 2**53, a grouping 2**53 + 1.0 * 2
        ("9007199254740992 a.\n1 b.\n1 c.\n", ""),
    ])
    @pytest.mark.parametrize("mode", ["penalty", "reward"])
    def test_pins_against_the_walk(self, text, atoms, mode):
        gp = ground(P(text))
        interp = frozenset(atom(a) for a in atoms)
        got = (weight_reward if mode == "reward" else weight_penalty)(gp, interp).soft
        want = self.walked(gp, interp, mode)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_classes_only_for_whole_weights_below_two_to_the_53(self):
        assert _classes(0b010, [5.0, 0.0, -5.0, 5.0]) == [(5.0, 0b1001), (-5.0, 0b0100)]
        assert _classes(0, [2.0 ** 53 - 3, 1.0, 1.0]) is not None  # adds up to 2**53 - 1
        assert _classes(0, [2.0 ** 53 - 2, 1.0, 1.0]) is None  # adds up to 2**53
        assert _classes(0, [2.0 ** 53, 1.0, 1.0]) is None
        assert _classes(0, [-1e308, -1e308]) is None  # inf: test_cli's test_infinite_soft_total
        assert _classes(0, [1.0, 0.5]) is None

    @staticmethod
    def generated(seed):
        rng = random.Random(1800 + seed)
        for _ in range(15):
            yield ground(P(random_program_text(rng, rng.randint(1, 5), rng.randint(1, 8),
                                               allow_disjunction=True, weight=integer_weight)))

    @pytest.mark.parametrize("seed", range(4))
    def test_generated_programs_every_model(self, seed):
        # weight_reward and weight_penalty, one lane of the counters, against
        # the walk rule by rule, sign of zero included, in both hard modes
        for gp in self.generated(seed):
            for hard_mode in ("strict", "relaxed"):
                comp = (enum := StableModelEnumerator(gp, hard_mode)).comp
                assert _classes(comp.hard, comp.weights) is not None
                for interp, v in zip(enum.models(), enum.violations):
                    for reward, weigh in (False, weight_penalty), (True, weight_reward):
                        got = weigh(gp, interp)
                        (hard,), (soft,) = _weights([comp.counted(v, reward)], comp.hard,
                                                    comp.weights)
                        assert got == WeightVector(hard, soft)
                        assert math.copysign(1.0, got.soft) == math.copysign(1.0, soft)

    @pytest.mark.parametrize("seed", range(4))
    def test_generated_programs_weighed_in_the_slice(self, lane_bits, seed):
        # the hard and soft columns that _weigh_models takes from the slices'
        # counters are the walk's, sign of zero included, in both modes and
        # hard modes
        for gp in self.generated(seed):
            for hard_mode in ("strict", "relaxed"):
                comp = (enum := StableModelEnumerator(gp, hard_mode)).comp
                assert _classes(comp.hard, comp.weights) is not None
                for mode in ("penalty", "reward"):
                    hard, soft = _weights([comp.counted(v, mode == "reward")
                                           for v in enum.violations], comp.hard, comp.weights)
                    if not hard:
                        with pytest.raises(NoStableModelsError):
                            _weigh_models(gp, mode, hard_mode, DEFAULT_ATOM_CAP)
                        continue
                    w = _weigh_models(gp, mode, hard_mode, DEFAULT_ATOM_CAP)
                    assert w.hard == hard
                    assert w.soft == soft
                    assert [math.copysign(1.0, s) for s in w.soft] == \
                        [math.copysign(1.0, s) for s in soft]


class TestDistribution:
    def test_bird_probabilities(self):
        dist = distribution(bird_gp(), "penalty")
        by_model = {e.interpretation: e.probability for e in dist.entries}
        assert by_model[BIRD_RB] == pytest.approx(0.665240955775, abs=1e-9)
        assert by_model[frozenset()] == pytest.approx(0.0900305731704, abs=1e-9)
        assert by_model[BIRD_MB] == pytest.approx(0.244728471055, abs=1e-9)

    def test_single_hard_fact(self):
        dist = distribution(ground(P("a.\n")))
        assert dist.probability(frozenset([atom("a")])) == 1.0

    def test_soft_fact_penalty(self):
        dist = distribution(ground(P("2 a.\n")), "penalty")
        # two stable models; brute-force normalization of e^0 vs e^-2
        assert dist.probability(frozenset([atom("a")])) == \
            pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-12)
        assert dist.probability(frozenset([atom("a")])) == pytest.approx(0.880797077978, abs=1e-9)

    def test_probabilities_sum_to_one(self):
        rng = random.Random(3)
        for _ in range(25):
            gp = ground(P(random_program_text(rng, rng.randint(1, 6), rng.randint(1, 6))))
            try:
                dist = distribution(gp, "penalty", "relaxed")
            except NoStableModelsError:
                continue
            assert sum(e.probability for e in dist.entries) == pytest.approx(1.0, abs=1e-9)

    def test_zero_probability_models_remain_listed(self):
        # {} violates both hard rules, {a} violates none; both are in SM[P]
        dist = distribution(ground(P("a.\n:- not a.\n")), "penalty", "relaxed")
        assert len(dist.entries) == 2
        assert sorted(e.probability for e in dist.entries) == [0.0, 1.0]

    def test_no_models_reported(self):
        with pytest.raises(NoStableModelsError):
            distribution(ground(P("a.\n:- a.\n")), "penalty", "strict")

    def test_unknown_mode(self):
        with pytest.raises(ValueError) as exc:
            distribution(ground(P("a.\n")), mode="bogus")
        assert str(exc.value) == "unknown mode 'bogus'"

    def test_non_model_and_support(self):
        dist = distribution(ground(P("a.\n:- not a.\n")), "penalty", "relaxed")
        assert dist.probability(frozenset([atom("b")])) == 0.0
        assert [e.interpretation for e in dist.support()] == [frozenset([atom("a")])]


class TestHardModes:
    def test_all_hard_bird_strict_unsat(self):
        gp = ground(parse_program(fixture_path("bird.lp").read_text()))
        with pytest.raises(NoStableModelsError):
            distribution(gp, "penalty", "strict")

    def test_all_hard_bird_relaxed_three_models(self):
        gp = ground(parse_program(fixture_path("bird.lp").read_text()))
        dist = distribution(gp, "penalty", "relaxed")
        support = {e.interpretation for e in dist.entries if e.probability > 0}
        assert len(support) == 3
        assert BIRD_RB in support

    def test_consistent_hard_program_modes_agree(self):
        gp = ground(P("a.\nb :- a.\n{c}.\n1 d :- c.\n"))
        ds = distribution(gp, "penalty", "strict")
        dr = distribution(gp, "penalty", "relaxed")
        strict = {e.interpretation: e.probability for e in ds.entries}
        relaxed = {e.interpretation: e.probability for e in dr.entries if e.probability > 0}
        assert strict.keys() == relaxed.keys()
        for k in strict:
            assert strict[k] == pytest.approx(relaxed[k], abs=1e-12)


class TestMapEstimate:
    def test_bird(self):
        result = map_estimate(bird_gp())
        assert result.models == (BIRD_RB,)
        assert result.optimizations == (1000,)

    def test_tied_models_all_returned(self):
        result = map_estimate(ground(P("1 a.\n1 :- a.\n")))
        assert len(result.models) == 2
        assert set(result.optimizations) == {1000}

    def test_hard_only_program_ties_everything(self):
        result = map_estimate(ground(P("{a}.\n")))
        assert len(result.models) == 2

    @pytest.mark.parametrize("scale", [0, -3])
    def test_scale_below_one(self, scale):
        with pytest.raises(ValueError, match="^scale must be a positive integer$"):
            map_estimate(bird_gp(), scale=scale)

    def test_scaling_preserves_argmax(self):
        rng = random.Random(17)
        for _ in range(20):
            text = random_program_text(rng, rng.randint(1, 5), rng.randint(1, 5),
                                       hard_frac=0.2)
            scaled = []
            for line in text.splitlines():
                head, _, rest = line.partition(" ")
                try:
                    w = float(head)
                    scaled.append(f"{repr(w * 3.5)} {rest}")
                except ValueError:
                    scaled.append(line)
            gp1, gp2 = ground(P(text)), ground(P("\n".join(scaled) + "\n"))
            try:
                m1 = set(map_estimate(gp1, "relaxed").models)
                m2 = set(map_estimate(gp2, "relaxed").models)
            except NoStableModelsError:
                continue
            assert m1 == m2


class TestQueriesFromDistribution:
    """``map_estimate`` and ``marginal`` never build the distribution's
    entries; their answers must equal, exactly, what those entries give."""

    @pytest.mark.parametrize("seed", range(4))
    def test_generated_programs(self, seed):
        rng = random.Random(300 + seed)
        for _ in range(15):
            text = random_text_with_facts(rng, rng.randint(2, 6), rng.randint(1, 6),
                                          rng.randint(1, 2))
            gp = ground(P(text))
            names = sorted({a.predicate for a in gp.atoms})
            preds = rng.sample(names, min(2, len(names)))
            for hard_mode in ("strict", "relaxed"):
                try:
                    dist = distribution(gp, "penalty", hard_mode)
                except NoStableModelsError:
                    with pytest.raises(NoStableModelsError):
                        map_estimate(gp, hard_mode)
                    continue
                best = max(e.probability for e in dist.entries)
                ties = [e for e in dist.entries if e.probability >= best - _TIE_EPS]
                result = map_estimate(gp, hard_mode, scale=1000)
                assert result.models == tuple(e.interpretation for e in ties), text
                assert result.optimizations == tuple(
                    int(round(e.weight.soft * 1000)) for e in ties), text
                for mode in ("penalty", "reward"):
                    want = {a: 0.0 for a in sorted(gp.atoms, key=atom_sort_key)
                            if a.predicate in preds}
                    for e in distribution(gp, mode, hard_mode).entries:
                        if e.probability == 0.0:
                            continue
                        for a in want:
                            if a in e.interpretation:
                                want[a] += e.probability
                    assert marginal(gp, preds, mode, hard_mode) == want, text


class TestMarginalAndConditional:
    def test_smoke_marginals(self):
        gp = ground(parse_program(fixture_path("smoke.lpmln").read_text()))
        result = marginal(gp, ["smoke"])
        assert result[atom("smoke", "alice")] == pytest.approx(1.0, abs=1e-12)
        assert result[atom("smoke", "bob")] == pytest.approx(0.788058442382915, abs=1e-9)
        assert result[atom("smoke", "carol")] == pytest.approx(0.576116884765829, abs=1e-9)

    def test_bird_marginal(self):
        result = marginal(bird_gp(), ["residentbird"])
        assert result[atom("residentbird", "jo")] == pytest.approx(0.665240955775, abs=1e-9)

    def test_predicate_false_everywhere(self):
        gp = ground(P("a.\np :- q.\n"))
        assert marginal(gp, ["p"]) == {atom("p"): 0.0}

    def test_unknown_predicate_warns(self):
        with pytest.warns(UnknownPredicateWarning):
            result = marginal(bird_gp(), ["nosuch"])
        assert result == {}

    def test_bird_conditional(self):
        prog = parse_program(fixture_path("bird.lpmln").read_text())
        ev = parse_evidence(fixture_path("bird_evid.db").read_text())
        result = conditional(prog, ev, ["residentbird"])
        assert result[atom("residentbird", "jo")] == pytest.approx(0.73105857863, abs=1e-9)

    def test_pcm_counterfactual(self):
        prog = parse_program(fixture_path("pcm_firing_squad.lpmln").read_text())
        ev = parse_evidence(fixture_path("pcm_evid.db").read_text())
        result = conditional(prog, ev, ["ds"])
        assert result[atom("ds")] == pytest.approx(0.921047297896, abs=1e-9)

    def test_entailed_evidence_is_noop(self):
        prog = parse_program(fixture_path("bird.lpmln").read_text())
        ev = parse_evidence(":- residentbird(jo), migratorybird(jo).\n")
        assert conditional(prog, ev, ["bird"]) == marginal(ground(prog), ["bird"])

    def test_empty_evidence_equals_marginal(self):
        prog = parse_program(fixture_path("bird.lpmln").read_text())
        assert conditional(prog, parse_evidence(""), ["residentbird"]) == \
            marginal(ground(prog), ["residentbird"])

    def test_inconsistent_evidence(self):
        prog = parse_program(fixture_path("bird.lpmln").read_text())
        with pytest.raises(InconsistentEvidenceError):
            conditional(prog, parse_evidence(":- bird(jo).\n:- not bird(jo).\n"), ["bird"])

    @pytest.mark.parametrize("text, error, message", [
        ("a.\n", InconsistentEvidenceError, "evidence is inconsistent with the program"),
        # the program alone has no stable model: the evidence is not to blame
        ("a.\n:- a.\n", NoStableModelsError, "no probabilistic stable models"),
    ])
    def test_evidence_is_blamed_only_when_the_program_has_models(self, text, error, message):
        with pytest.raises(NoStableModelsError) as info:
            conditional(P(text), parse_evidence(":- a.\n:- b.\n"), ["a"])
        assert (type(info.value), str(info.value)) == (error, message)

    def test_soft_evidence_rejected(self):
        prog = parse_program(fixture_path("bird.lpmln").read_text())
        with pytest.raises(ValueError):
            conditional(prog, P("2 a.\n"), ["bird"])


class TestConditionalIsBayesFilter:
    def test_matches_filtered_renormalized_joint(self):
        import warnings as _warnings
        from lpmln import parse_evidence

        rng = random.Random(24680)
        checked = 0
        while checked < 40:
            n = rng.randint(2, 6)
            prog = P(random_program_text(rng, n, rng.randint(1, 6), hard_frac=0.25))
            target, ev_atom = (f"a{rng.randint(1, n)}" for _ in range(2))
            want_true = rng.random() < 0.5
            ev = parse_evidence(f":- {'not ' if want_true else ''}{ev_atom}.\n")
            try:
                dist = distribution(ground(prog), "penalty", "strict")
            except NoStableModelsError:
                continue
            num = sum(e.probability for e in dist.entries
                      if (atom(ev_atom) in e.interpretation) == want_true
                      and atom(target) in e.interpretation)
            den = sum(e.probability for e in dist.entries
                      if (atom(ev_atom) in e.interpretation) == want_true)
            with _warnings.catch_warnings():
                _warnings.simplefilter("ignore")
                if den < 1e-12:
                    with pytest.raises(InconsistentEvidenceError):
                        conditional(prog, ev, [target])
                    continue
                got = conditional(prog, ev, [target]).get(atom(target), 0.0)
            assert got == pytest.approx(num / den, abs=1e-9)
            checked += 1


class TestSemanticEquivalences:
    def test_reward_equals_penalty_probabilities(self):
        rng = random.Random(2024)
        for _ in range(60):
            gp = ground(P(random_program_text(rng, rng.randint(1, 8), rng.randint(1, 8))))
            try:
                dp = distribution(gp, "penalty", "relaxed")
            except NoStableModelsError:
                continue
            dr = distribution(gp, "reward", "relaxed")
            assert len(dp.entries) == len(dr.entries)
            for ep, er in zip(dp.entries, dr.entries):
                assert ep.interpretation == er.interpretation
                assert ep.probability == pytest.approx(er.probability, abs=1e-9)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(safe_programs(max_rules=3))
    def test_property_reward_equals_penalty(self, prog):
        # the same interpretations in the same order with the same
        # probabilities, or no stable model for either, in both hard modes
        try:
            gp = ground(prog)
        except GroundingError:
            assume(False)
        for hard_mode in ("strict", "relaxed"):
            dists = []
            for mode in ("penalty", "reward"):
                try:
                    dists.append(distribution(gp, mode, hard_mode, cap=12))
                except NoStableModelsError:
                    dists.append(None)
                except EnumerationCapError:
                    assume(False)
            dp, dr = dists
            if dp is None or dr is None:
                assert dp is dr
                continue
            assert [e.interpretation for e in dp.entries] == \
                [e.interpretation for e in dr.entries]
            for ep, er in zip(dp.entries, dr.entries):
                assert ep.probability == pytest.approx(er.probability, abs=1e-9)

    def test_trivial_rule_insensitivity(self):
        base = "2 a.\n1 b :- a, not c.\n{c}.\n"
        extended = base + "1.5 a :- a.\n"
        gp1, gp2 = ground(P(base)), ground(P(extended))
        for interp in (frozenset(), frozenset([atom("a")]),
                       frozenset([atom("a"), atom("b")]), frozenset([atom("c")])):
            assert weight_penalty(gp1, interp).soft == \
                pytest.approx(weight_penalty(gp2, interp).soft, abs=1e-12)
        for mode in ("penalty", "reward"):
            d1 = distribution(gp1, mode, "relaxed")
            d2 = distribution(gp2, mode, "relaxed")
            for e in d1.entries:
                assert d2.probability(e.interpretation) == \
                    pytest.approx(e.probability, abs=1e-12)
