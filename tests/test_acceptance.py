"""Acceptance suite: one test per shipped guarantee, each at its stated
tolerance, printing a PASS line when it holds.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines).
"""

import math
import random
import time

import pytest

from lpmln import fixture_path, ground, parse_evidence, parse_program
from lpmln.asp_backend import optimal_models, phi_extend, translate_penalty, translate_reward
from lpmln.engine import enumerate_sm
from lpmln.frontends import problog_to_lpmln
from lpmln.inference import (
    NoStableModelsError, conditional, distribution, map_estimate, marginal,
    weight_penalty, weight_reward,
)
from lpmln.mln_backend import aux_extract, complete, mln_distribution
from lpmln.model import Program, atom, merge_programs
from helpers import P, random_program_text, random_tight_text

TOL = 1e-9


def load(name):
    return parse_program(fixture_path(name).read_text())


def evidence(name):
    return parse_evidence(fixture_path(name).read_text())


def done(n, text):
    print(f"criterion {n:2d} PASS: {text}")


def test_criterion_01_bird_distribution_and_map():
    gp = ground(load("bird.lpmln"))
    dist = distribution(gp, "penalty", "strict")
    rb = frozenset([atom("bird", "jo"), atom("residentbird", "jo")])
    mb = frozenset([atom("bird", "jo"), atom("migratorybird", "jo")])
    assert dist.probability(rb) == pytest.approx(0.665240955775, abs=TOL)
    assert dist.probability(frozenset()) == pytest.approx(0.0900305731704, abs=TOL)
    assert dist.probability(mb) == pytest.approx(0.244728471055, abs=TOL)
    result = map_estimate(gp, scale=1000)
    assert result.models == (rb,)
    assert result.optimizations == (1000,)
    done(1, "bird distribution 0.665240955775 / 0.0900305731704 / 0.244728471055; "
            "MAP {residentbird(jo), bird(jo)} at Optimization 1000")


def test_criterion_02_bird_conditional():
    got = conditional(load("bird.lpmln"), evidence("bird_evid.db"), ["residentbird"])
    assert got[atom("residentbird", "jo")] == pytest.approx(0.73105857863, abs=TOL)
    done(2, "P(residentbird(jo) | bird(jo)) = 0.73105857863")


def test_criterion_03_smoke_marginals_and_embedding():
    got = marginal(ground(load("smoke.lpmln")), ["smoke"])
    assert got[atom("smoke", "alice")] == pytest.approx(1.0, abs=TOL)
    assert got[atom("smoke", "bob")] == pytest.approx(0.788058442382915, abs=TOL)
    assert got[atom("smoke", "carol")] == pytest.approx(0.576116884765829, abs=TOL)
    embedded = marginal(ground(load("smoke_mln.lpmln")), ["smoke"])
    assert embedded[atom("smoke", "bob")] == pytest.approx(0.650244590946, abs=TOL)
    assert embedded[atom("smoke", "carol")] == pytest.approx(0.650244590946, abs=TOL)
    done(3, "smoke marginals 1 / 0.788058442382915 / 0.576116884765829; "
            "embedded variant 0.650244590946")


def test_criterion_04_debugging_mode():
    gp = ground(load("bird.lp"))
    with pytest.raises(NoStableModelsError):
        distribution(gp, "penalty", "strict")
    relaxed = distribution(gp, "penalty", "relaxed")
    support = [e.interpretation for e in relaxed.entries if e.probability > 0]
    assert len(support) == 3
    assert frozenset([atom("bird", "jo"), atom("residentbird", "jo")]) in support
    done(4, "all-hard bird: strict mode has no stable models, relaxed mode has "
            "exactly 3 probabilistic ones incl. {bird(jo), residentbird(jo)}")


def test_criterion_05_firing_squad_counterfactual():
    got = conditional(load("pcm_firing_squad.lpmln"), evidence("pcm_evid.db"), ["ds"])
    assert got[atom("ds")] == pytest.approx(0.921047297896, abs=TOL)
    done(5, "P(ds | do(a0), d) = 0.921047297896")


def test_criterion_06_fire_alarm_queries():
    prog = load("fire_bayes.lpmln")
    cases = [
        ("fire_evid_diagnostic.db", "fire", 0.352151116689),
        ("fire_evid_predictive.db", "leaving", 0.862603541626),
        ("fire_evid_mixed.db", "alarm", 0.938679679707),
        ("fire_evid_intercausal.db", "tampering", 0.0102021964693),
        ("fire_evid_explaining.db", "tampering", 0.633397289908),
    ]
    for ev_name, pred, want in cases:
        got = conditional(prog, evidence(ev_name), [pred])
        assert got[atom(pred)] == pytest.approx(want, abs=TOL), (ev_name, pred)
    done(6, "fire-alarm diagnostic/predictive/mixed/intercausal/explaining-away "
            "queries reproduce all five published probabilities")


def test_criterion_07_reward_penalty_equivalence():
    rng = random.Random(20170801)
    checked = 0
    for _ in range(200):
        gp = ground(P(random_program_text(rng, rng.randint(2, 10), rng.randint(1, 8),
                                          hard_frac=0.3)))
        try:
            dp = distribution(gp, "penalty", "relaxed")
        except NoStableModelsError:
            continue
        dr = distribution(gp, "reward", "relaxed")
        checked += 1
        for ep, er in zip(dp.entries, dr.entries):
            assert ep.interpretation == er.interpretation
            assert ep.probability == pytest.approx(er.probability, abs=TOL)
        assert sum(e.probability for e in dp.entries) == pytest.approx(1.0, abs=TOL)
    assert checked >= 190
    done(7, f"reward and penalty probabilities agree on {checked} random programs")


def _markers_to_weights(prog, markers):
    by_index = {r.index: r for r in prog.rules}
    hard, soft = 0, 0.0
    for a in markers:
        rule = by_index[int(a.args[0].name)]
        if rule.weight.is_hard:
            hard += 1
        else:
            soft += rule.weight.value
    return hard, soft


def test_criterion_08_translation_theorems():
    rng = random.Random(20170802)
    for step in range(200):
        prog = P(random_program_text(rng, rng.randint(2, 8), rng.randint(1, 8),
                                     allow_disjunction=True))
        gp = ground(prog)
        source = enumerate_sm(gp, "relaxed")
        flavor = "penalty" if step % 2 == 0 else "reward"
        if flavor == "penalty":
            tp = translate_penalty(prog, 1000, translate_hard=True)
        else:
            tp = translate_reward(prog, 1000)
        image = {phi_extend(prog, i, flavor): i for i in source}
        translated = enumerate_sm(ground(Program(tp.rules), universe=tp.source_universe),
                                  "strict")
        assert set(translated) == set(image) and len(translated) == len(source)
        for t in translated:
            i = image[t]
            hard, soft = _markers_to_weights(prog, t - i)
            wv = weight_penalty(gp, i) if flavor == "penalty" else weight_reward(gp, i)
            assert hard == wv.hard
            assert soft == pytest.approx(wv.soft, abs=TOL)
        if source:
            best = set(map_estimate(gp, "relaxed").models)
            assert {image[t] for t in optimal_models(tp)} == best
    done(8, "marker-witness bijection, weight identities, and MAP/optimal-model "
            "correspondence hold for 200 random programs (both translations)")


def test_criterion_09_aux_rewriting():
    import test_mln_backend as tm
    rng = random.Random(20170803)
    checked = 0
    while checked < 100:
        mln = tm._random_mln(rng)
        target = tm._random_subformula(rng, mln)
        if target is None or not tm.hard_satisfiable(mln):
            continue
        checked += 1
        rewritten = aux_extract(mln, target)
        base = mln_distribution(mln)
        projected = mln_distribution(rewritten).project(rewritten.aux_atoms)
        for w, p in base.entries:
            assert projected.get(w, 0.0) == pytest.approx(p, abs=TOL)
    done(9, "aux-rewritten distributions marginalize back exactly on 100 random "
            "formula programs")


def test_criterion_10_tight_completion():
    rng = random.Random(20170804)
    checked = 0
    while checked < 100:
        gp = ground(P(random_tight_text(rng, rng.randint(2, 6), rng.randint(1, 6))))
        try:
            src = distribution(gp, "reward", "strict")
        except NoStableModelsError:
            continue
        checked += 1
        _assert_completion_matches(gp, src)
    bird_mln = mln_distribution(complete(ground(load("bird.lpmln"))))
    e = math.e
    p_bird = bird_mln.marginal_of(atom("bird", "jo"))
    assert p_bird == pytest.approx((e ** 2 + e) / (1 + e + e ** 2), abs=TOL)
    assert abs(p_bird - 0.90296) < 0.02
    done(10, "completion preserves the distribution on 100 random tight programs; "
             "completed bird gives (e^2+e)/(1+e+e^2), within 0.02 of 0.90296")


def _assert_completion_matches(gp, src):
    """The completion's distribution, projected onto the program's atoms,
    is the program's reward distribution ``src``, both ways."""
    mln_d = mln_distribution(complete(gp))
    projected = mln_d.project(set(mln_d.atoms) - set(gp.atoms))
    support = {e.interpretation: e.probability for e in src.entries}
    for world in set(projected) | set(support):
        assert projected.get(world, 0.0) == pytest.approx(support.get(world, 0.0), abs=TOL)


def test_criterion_11_problog():
    for k in range(1, 10):
        p = k / 10
        prog = problog_to_lpmln([(p, atom("a"))])
        assert marginal(ground(prog), ["a"])[atom("a")] == pytest.approx(p, abs=TOL)

    # two-node probabilistic reachability: MAP must match a brute-force
    # sweep over the four edge subsets
    edge_p = {("n1", "n2"): 0.9, ("n2", "n1"): 0.3}
    facts = [(p, atom("edge", a, b)) for (a, b), p in edge_p.items()]
    rules = P("path(X,Y) :- edge(X,Y).\n"
              "path(X,Y) :- path(X,Z), path(Z,Y), Y != Z.\n"
              ":- not path(n1, n2).\n")
    prog = problog_to_lpmln(facts, rules)
    result = map_estimate(ground(prog))

    best, best_w = [], -1.0
    for mask in range(4):
        chosen = [e for k, e in enumerate(edge_p) if mask >> k & 1]
        if ("n1", "n2") not in chosen:
            continue  # evidence requires reachability in the 2-node graph
        w = 1.0
        for e, p in edge_p.items():
            w *= p if e in chosen else 1.0 - p
        if w > best_w + 1e-12:
            best, best_w = [set(chosen)], w
        elif abs(w - best_w) <= 1e-12:
            best.append(set(chosen))
    got = [{(a.args[0].name, a.args[1].name) for a in m if a.predicate == "edge"}
           for m in result.models]
    assert sorted(map(sorted, got)) == sorted(map(sorted, best))
    done(11, "translated fact marginals recover p for p in 0.1..0.9; "
             "reachability MAP matches the edge-subset oracle")


def test_criterion_12_clique_smoke_test():
    t0 = time.time()
    gp = ground(load("clique10.lpmln"))
    result = map_estimate(gp)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    assert result.models
    in_atoms = {a for a in result.models[0] if a.predicate == "in"}
    assert in_atoms  # a relaxed clique was actually selected
    done(12, f"relaxed-clique MAP (10 nodes, p=0.5) finished in {elapsed:.2f}s "
             "(timing experiments themselves are out of desk-scale scope)")


@pytest.mark.parametrize("name, evidence_name", [
    ("fire_bayes.lpmln", None),
    *[("fire_bayes.lpmln", f"fire_evid_{kind}.db")
      for kind in ("diagnostic", "explaining", "intercausal", "mixed", "predictive")],
    ("pcm_firing_squad.lpmln", None),
    ("pcm_firing_squad.lpmln", "pcm_evid.db"),
])
def test_criterion_13_completion_of_the_paper_programs(name, evidence_name):
    program = load(name)
    if evidence_name:
        program = merge_programs(program, evidence(evidence_name))
    gp = ground(program)
    _assert_completion_matches(gp, distribution(gp, "reward", "strict"))
    done(13, f"the completion of {name}" + (f" under {evidence_name}" if evidence_name else "")
             + " has the program's distribution")
