import math
import random
from itertools import product

import pytest

from lpmln import LpmlnSyntaxError, fixture_path, ground, parse_program
from lpmln.frontends import (
    BayesNet, MalformedNetworkError, bayes_to_lpmln, mln_embed,
    parse_bayes_net, parse_problog, problog_to_lpmln,
)
from lpmln.inference import distribution, marginal
from lpmln.model import atom
from helpers import P


class TestProblog:
    def test_biomine_edge_weight(self):
        prog = problog_to_lpmln([(0.942915444848, atom("drc", '"a"', '"b"'))])
        assert prog.rules[0].weight.value == pytest.approx(2.804443020124533, abs=1e-12)

    def test_half_is_weight_zero(self):
        prog = problog_to_lpmln([(0.5, atom("a"))])
        assert prog.rules[0].weight.value == 0.0

    def test_lone_fact_marginal_recovers_p(self):
        prog = problog_to_lpmln([(0.3, atom("a"))])
        assert marginal(ground(prog), ["a"])[atom("a")] == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("p", [k / 10 for k in range(1, 10)])
    def test_marginal_recovery_sweep(self, p):
        prog = problog_to_lpmln([(p, atom("a"))])
        assert marginal(ground(prog), ["a"])[atom("a")] == pytest.approx(p, abs=1e-9)

    def test_rejects_degenerate_probability(self):
        with pytest.raises(ValueError):
            problog_to_lpmln([(1.0, atom("a"))])
        with pytest.raises(ValueError):
            problog_to_lpmln([(0.0, atom("a"))])

    def test_parse_problog_text(self):
        prog = parse_problog("0.3::edge(a,b).\n0.8::edge(b,c).\n"
                             "path(X,Y) :- edge(X,Y).\n"
                             "path(X,Y) :- path(X,Z), path(Z,Y), Y != Z.\n")
        assert [r.weight.is_hard for r in prog.rules] == [False, False, True, True]
        assert prog.rules[0].weight.value == pytest.approx(math.log(0.3 / 0.7), abs=1e-12)

    @pytest.mark.parametrize("text", ["1.5::a.\n", "0::a.\n"])
    def test_parse_problog_rejects_degenerate_probability(self, text):
        with pytest.raises(LpmlnSyntaxError) as exc:
            parse_problog(text)
        assert str(exc.value) == "1:1: probabilistic fact needs 0 < p < 1"

    def test_rules_appended_hard(self):
        prog = problog_to_lpmln([(0.4, atom("edge", "a", "b"))],
                                P("path(X,Y) :- edge(X,Y).\n"))
        assert prog.rules[1].weight.is_hard
        assert prog.rules[1].index == 2


class TestMlnEmbed:
    def test_smoke_embedding_marginals(self):
        smoke = parse_program(fixture_path("smoke.lpmln").read_text())
        embedded = mln_embed(smoke, open_predicates=["smoke"])
        choice = [r for r in embedded.rules if r.is_choice]
        assert len(choice) == 1 and str(choice[0].head[0]) == "smoke(X1)"
        result = marginal(ground(embedded), ["smoke"])
        assert result[atom("smoke", "bob")] == pytest.approx(0.650244590946, abs=1e-9)
        assert result[atom("smoke", "carol")] == pytest.approx(0.650244590946, abs=1e-9)

    def test_matches_smoke_mln_fixture(self):
        smoke = parse_program(fixture_path("smoke.lpmln").read_text())
        fixture = parse_program(fixture_path("smoke_mln.lpmln").read_text())
        a = marginal(ground(mln_embed(smoke, open_predicates=["smoke"])), ["smoke"])
        b = marginal(ground(fixture), ["smoke"])
        for k in b:
            assert a[k] == pytest.approx(b[k], abs=1e-12)

    def test_default_opens_every_schema(self):
        prog = mln_embed(P("1 p :- q(a).\n"))
        heads = {str(r.head[0]) for r in prog.rules if r.is_choice}
        assert heads == {"p", "q(X1)"}

    def test_empty_program(self):
        assert len(mln_embed(P(""))) == 0

    def test_hard_fact_stays_forced(self):
        prog = mln_embed(P("a.\n"))
        dist = distribution(ground(prog), "penalty", "strict")
        assert dist.probability(frozenset([atom("a")])) == 1.0
        assert len(dist.entries) == 1


FIRE_BN = parse_bayes_net(fixture_path("fire_alarm.bn").read_text())


class TestBayesNet:
    def test_parse_fire_alarm(self):
        assert [n for n, _ in FIRE_BN.nodes] == \
            ["tampering", "fire", "alarm", "smoke", "leaving", "report"]
        assert FIRE_BN.cpt[("alarm", (True, False))] == 0.85
        assert FIRE_BN.cpt[("tampering", ())] == 0.02

    def test_abbreviations_unique_initials(self):
        assert FIRE_BN.abbrev["alarm"] == "a"
        net = parse_bayes_net("node alpha\nnode almond alpha\n"
                              "cpt alpha 0.5\ncpt almond t 0.5\ncpt almond f 0.5\n")
        assert net.abbrev["alpha"] == "alpha"  # clash falls back to full names

    def test_compiled_alarm_row_weights(self):
        prog = bayes_to_lpmln(FIRE_BN)
        facts = {str(r.head[0]): r.weight for r in prog.rules if r.head and not r.body}
        assert facts["pf(a,t1f1)"].value == pytest.approx(math.log(0.5 / 0.5), abs=1e-15)
        assert facts["pf(a,t1f0)"].value == pytest.approx(math.log(0.85 / 0.15), abs=1e-12)
        rules = [r for r in prog.rules if r.body and r.head]
        texts = {str(r) for r in rules}
        assert "alarm :- tampering, not fire, pf(a,t1f0)." in texts
        assert "leaving :- not alarm, pf(l,a0)." in texts

    def test_deterministic_rows(self):
        net = parse_bayes_net("node a\nnode b a\n"
                              "cpt a 0.6\ncpt b t 1\ncpt b f 0\n")
        prog = bayes_to_lpmln(net)
        texts = [str(r) for r in prog.rules]
        assert "pf(b,a1)." in texts          # p = 1: hard fact
        assert ":- pf(b,a0)." in texts       # p = 0: the atom is forbidden

    def test_chain_joint_matches_cpt_product(self):
        net = parse_bayes_net("node a\nnode b a\n"
                              "cpt a 0.6\ncpt b t 1\ncpt b f 0\n")
        gp = ground(bayes_to_lpmln(net))
        dist = distribution(gp, "penalty", "strict")
        nodes = [atom("a"), atom("b")]
        for va, vb in product((True, False), repeat=2):
            want = net.joint({"a": va, "b": vb})
            got = sum(e.probability for e in dist.entries
                      if (nodes[0] in e.interpretation) == va
                      and (nodes[1] in e.interpretation) == vb)
            assert got == pytest.approx(want, abs=1e-9)

    def test_random_networks_match_joint(self):
        rng = random.Random(555)
        for _ in range(12):
            net = _random_bn(rng)
            gp = ground(bayes_to_lpmln(net))
            dist = distribution(gp, "penalty", "strict")
            names = [n for n, _ in net.nodes]
            node_atoms = {n: atom(n) for n in names}
            acc = {}
            for e in dist.entries:
                key = tuple(node_atoms[n] in e.interpretation for n in names)
                acc[key] = acc.get(key, 0.0) + e.probability
            for values in product((True, False), repeat=len(names)):
                want = net.joint(dict(zip(names, values)))
                assert acc.get(values, 0.0) == pytest.approx(want, abs=1e-9), net

    def test_malformed_rejected(self):
        with pytest.raises(MalformedNetworkError):
            parse_bayes_net("node a\ncpt a t 0.5\n")  # bogus parent flag count
        with pytest.raises(MalformedNetworkError):
            parse_bayes_net("node a\n")  # missing CPT row
        with pytest.raises(MalformedNetworkError):
            BayesNet((("a", ()),), {("a", ()): 1.5})
        with pytest.raises(MalformedNetworkError,
                           match="^node name 'Fire' is not a lowercase identifier$"):
            BayesNet((("Fire", ()),), {("Fire", ()): 0.5})
        with pytest.raises(MalformedNetworkError,
                           match="^node name 'not' is a keyword of the input language$"):
            BayesNet((("not", ()),), {("not", ()): 0.5})

    @pytest.mark.parametrize("text, message", [
        ("node a\ncpt a abc\n", "line 2: cannot read probability 'abc'"),
        ("node a\ncpt a t\n", "line 2: cannot read probability 't'"),
        ("node a\nnode a\ncpt a 0.5\n", "duplicate node"),
        ("node a x\ncpt a t 0.5\ncpt a f 0.5\n", "undeclared parent 'x' of 'a'"),
        ("node b a\nnode a\n", "node 'b' lists parent 'a' declared later; "
                               "declare parents first"),
        ("node a\nnode b a\ncpt a 0.5\ncpt b x 0.5\n",
         "line 4: parent values must be t or f"),
        ("node a\nbogus\n", "line 2: cannot parse 'bogus'"),
        ("node a\ncpt a 0.5\ncpt a 0.7\n", "line 3: duplicate CPT row for ('a', ())"),
        ("node a\ncpt a 0.5\ncpt a t 0.3\ncpt z 0.9\ncpt a 0.7\n",
         "line 5: duplicate CPT row for ('a', ())"),
        ("node a\ncpt a 0.5\ncpt z 0.9\n", "CPT entry ('z', ()) names an undeclared node"),
        ("node Fire\ncpt Fire 0.5\n", "line 1: node name 'Fire' is not a lowercase identifier"),
        ("node 1st\ncpt 1st 0.5\n", "line 1: node name '1st' is not a lowercase identifier"),
        ("node a\nnode b_1\nnode _c\n", "line 3: node name '_c' is not a lowercase identifier"),
        ("node not\ncpt not 0.5\nnode b not\ncpt b t 0.3\ncpt b f 0.6\n",
         "line 1: node name 'not' is a keyword of the input language"),
        ("node a\nnode \u00e9t\u00e9 a\n",
         "line 2: node name '\u00e9t\u00e9' is not a lowercase identifier"),
        ("node a\ncpt a 0.5\ncpt a t 0.3\n",
         "CPT entry ('a', (True,)) does not match the 0 parents of 'a'"),
        ("node a\nnode b a\ncpt a 0.5\ncpt b t 0.1\ncpt b f 0.2\ncpt b 0.3\n",
         "CPT entry ('b', ()) does not match the 1 parents of 'b'"),
    ])
    def test_malformed_messages(self, text, message):
        with pytest.raises(MalformedNetworkError) as exc:
            parse_bayes_net(text)
        assert str(exc.value) == message


def _random_bn(rng) -> BayesNet:
    n = rng.randint(1, 4)
    names = [f"v{k}" for k in range(n)]
    nodes = []
    cpt = {}
    for k, name in enumerate(names):
        parents = tuple(rng.sample(names[:k], min(k, rng.randint(0, 2))))
        nodes.append((name, parents))
        for values in product((True, False), repeat=len(parents)):
            cpt[(name, values)] = rng.choice([0.0, 0.2, 0.5, 0.8, 1.0])
    return BayesNet(tuple(nodes), cpt)
