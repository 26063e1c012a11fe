import functools
import io
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from lpmln import check_safety, cli, fixture_path, ground, grounder, parse_evidence, parse_program
from lpmln.engine import DEFAULT_ATOM_CAP, StableModelEnumerator, _bit_indices
from lpmln.grounder import (
    EmptyUniverseError, GroundingCapError, GroundingError, UnsafeRuleError, _ground_live,
)
from lpmln.inference import DEFAULT_SCALE, distribution
from lpmln.model import Term, merge_programs
from helpers import P, naive_atoms, naive_ground, naive_live
from strategies import programs, safe_programs


class TestCheckSafety:
    def test_bird_rule_safe(self):
        assert check_safety(P("bird(X) :- residentbird(X).\n").rules[0])

    def test_negative_binding_unsafe(self):
        assert not check_safety(P("p(X) :- not q(X).\n").rules[0])

    def test_ground_fact_safe(self):
        assert check_safety(P("p(a).\n").rules[0])

    def test_choice_head_variables_safe(self):
        assert check_safety(P("{in(X)} :- node(X).\n").rules[0])
        assert check_safety(P("{smoke(X)}.\n").rules[0])

    def test_desugared_choice_head_variables_safe(self):
        assert check_safety(P("p(X) :- not not p(X), X != a.\n").rules[0])
        assert not check_safety(P("p(X) :- not not q(X), X != a.\n").rules[0])

    def test_unsafe_reported_with_rule_and_variable(self):
        with pytest.raises(UnsafeRuleError) as exc:
            ground(P("p(a).\nq(X) :- not p(X).\n"))
        assert exc.value.rule_index == 2
        assert exc.value.variable == "X"


class TestGround:
    def test_smoke_rule_grounds_nine_ways(self):
        gp = ground(P("1 smoke(Y) :- smoke(X), influence(X, Y).\n"
                      "smoke(alice). influence(alice, bob). influence(bob, carol).\n"))
        soft = [r for r in gp.rules if not r.is_hard]
        assert len(soft) == 9
        assert all(r.weight.value == 1.0 for r in soft)

    def test_inequality_filters_substitutions(self):
        # X,Y,Z over two constants: 8 raw substitutions, 4 survive Y != Z
        gp = ground(P("edge(a, b).\npath(X,Y) :- edge(X,Z), edge(Z,Y), Y != Z.\n"))
        instances = [r for r in gp.rules if r.origin_index == 2]
        assert len(instances) == 4
        for r in instances:
            assert all(lit.atom.is_ground for lit in r.body)

    def test_ground_program_unchanged(self):
        gp = ground(P("a :- b, not c.\n2 b.\n"))
        assert [(r.origin_index, [str(a) for a in r.head], [str(l) for l in r.body])
                for r in gp.rules] == [(1, ["a"], ["b", "not c"]), (2, ["b"], [])]

    def test_empty_universe_with_variables(self):
        with pytest.raises(EmptyUniverseError):
            ground(P("p(X) :- q(X).\n"))

    def test_cap(self):
        with pytest.raises(GroundingCapError):
            ground(P("p(a). p(b). p(c).\nq(X,Y,Z) :- p(X), p(Y), p(Z).\n"), cap=10)

    def test_deterministic_order(self):
        text = "p(b). p(a).\nq(X, Y) :- p(X), p(Y).\n"
        assert ground(P(text)) == ground(P(text))


class TestGroundingProperties:
    def test_instance_count_matches_enumeration(self):
        rng = random.Random(11)
        for _ in range(25):
            consts = [f"c{k}" for k in range(rng.randint(1, 3))]
            n_preds = rng.randint(1, 3)
            lines = [f"dom({c})." for c in consts]
            for k in range(n_preds):
                arity = rng.randint(1, 2)
                vs = [f"X{j}" for j in range(arity)]
                body = [f"dom({v})" for v in vs]
                if arity == 2 and rng.random() < 0.5:
                    body.append(f"{vs[0]} != {vs[1]}")
                lines.append(f"p{k}({','.join(vs)}) :- {', '.join(body)}.")
            prog = P("\n".join(lines) + "\n")
            gp = ground(prog)

            from lpmln.model import Inequality
            expected = 0
            for rule in prog.rules:
                variables = rule.variables()
                if not variables:
                    expected += 1
                    continue
                for combo in product(prog.universe, repeat=len(variables)):
                    binding = dict(zip(variables, combo))
                    if all(not isinstance(el, Inequality)
                           or binding.get(el.lhs.name, el.lhs) != binding.get(el.rhs.name, el.rhs)
                           for el in rule.body):
                        expected += 1
            assert len(gp.rules) == expected

    def test_constant_renaming_is_isomorphic(self):
        text = ("1 smoke(Y) :- smoke(X), influence(X, Y).\n"
                "smoke(alice). influence(alice, bob). influence(bob, carol).\n")
        renamed = text.replace("alice", "zz1").replace("bob", "zz2").replace("carol", "zz3")
        d1 = distribution(ground(P(text)))
        d2 = distribution(ground(P(renamed)))
        probs1 = sorted(e.probability for e in d1.entries)
        probs2 = sorted(e.probability for e in d2.entries)
        assert probs1 == pytest.approx(probs2, abs=1e-12)


_TERMS = ("X", "Y", "Z", "a", "b", "c")


def _draw_atom(data, variables: set) -> str:
    pred, arity = data.draw(st.sampled_from([("z", 0), ("q", 1), ("r", 2)]))
    args = data.draw(st.lists(st.sampled_from(_TERMS), min_size=arity, max_size=arity))
    variables.update(t for t in args if t[:1].isupper())
    return pred + (f"({','.join(args)})" if args else "")


def _draw_rule(data) -> str:
    """A rule over z/0, q/1 and r/2: a constraint, a plain, choice or
    disjunctive head, body literals under 0-2 negations and inequalities
    between variables and constants; every variable is made safe by a
    positive dom/1 literal unless a positive literal or a choice head binds
    it already."""
    kind = data.draw(st.sampled_from(["constraint", "plain", "choice", "disjunction"]))
    safe: set = set()
    variables: set = set()
    heads = [] if kind == "constraint" else \
        [_draw_atom(data, safe if kind == "choice" else variables)
         for _ in range(2 if kind == "disjunction" else 1)]
    body = []
    for _ in range(data.draw(st.integers(0 if heads else 1, 3))):
        negation = data.draw(st.sampled_from(["", "", "not ", "not not "]))
        body.append(negation + _draw_atom(data, variables if negation else safe))
    for _ in range(data.draw(st.integers(0, 2))):
        lhs, rhs = data.draw(st.lists(st.sampled_from(_TERMS), min_size=2, max_size=2))
        variables.update(t for t in (lhs, rhs) if t[:1].isupper())
        body.append(f"{lhs} != {rhs}")
    body += [f"dom({v})" for v in sorted(variables - safe)]
    weight = data.draw(st.sampled_from(["", "1.5 ", "-2 "]))
    head = "{" + heads[0] + "}" if kind == "choice" else " ; ".join(heads)
    if not body:
        return f"{weight}{head}."
    return f"{weight}{head}{' :- ' if head else ':- '}{', '.join(body)}."


class TestAgainstNaiveGrounder:
    """The compiled grounder must give exactly the universe product: the
    same instances, in the same order, with the same substitutions."""

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.data())
    def test_property_same_instances_and_atoms(self, data):
        lines = ["dom(a).", "dom(b)."]
        lines += [_draw_rule(data) for _ in range(data.draw(st.integers(1, 4)))]
        program = P("\n".join(lines) + "\n")
        universe = data.draw(st.one_of(st.none(), st.lists(
            st.sampled_from(["a", "b", "c", "d"]), min_size=1, unique=True)))
        if universe is not None:
            universe = tuple(map(Term, universe))
        gp = ground(program, universe=universe)
        expected = naive_ground(program, universe=universe)
        assert gp == expected
        assert gp.atoms == naive_atoms(expected)

    def test_inequalities_between_variables_and_constants(self):
        text = ("dom(a). dom(b). dom(c).\n"
                "p(X, Y) :- dom(X), dom(Y), X != Y, X != b, c != Y, a != c.\n"
                "q(X) :- dom(X), X != X.\nr :- a != a.\ns(X) :- dom(X), X != d.\n")
        universe = tuple(map(Term, "abc"))  # d differs from every value
        gp = ground(P(text), universe=universe)
        assert gp == naive_ground(P(text), universe=universe)
        assert [str(r.head[0]) for r in gp.rules if r.origin_index in (4, 7)] == \
            ["p(a,b)", "p(c,a)", "p(c,b)", "s(a)", "s(b)", "s(c)"]
        assert {r.origin_index for r in gp.rules} == {1, 2, 3, 4, 7}

    @pytest.mark.parametrize("grounding", [ground, _ground_live])
    def test_one_object_per_ground_atom_and_literal(self, grounding):
        gp = grounding(P("{q(X)} :- dom(X).\nr :- q(X), not q(X), not not q(X).\n"
                         "dom(a). dom(b). dom(a).\n"))
        atoms = [a for r in gp.rules for a in r.head + tuple(l.atom for l in r.body)]
        literals = [l for r in gp.rules for l in r.body]
        assert len({id(a) for a in atoms}) == len(set(atoms)) == len(gp.atoms)
        assert len({id(l) for l in literals}) == len(set(literals))
        assert all(any(a is b for b in gp.atoms) for a in atoms)

    @pytest.mark.parametrize("grounding", [
        ground, _ground_live, functools.partial(ground, universe=(Term("a"),)),
    ], ids=["ground", "_ground_live", "ground-over-a"])
    def test_one_object_per_ground_atom_with_constants(self, grounding):
        # an atom written with a constant, in a fact, in a rule with
        # variables and in one without, is one object; over the universe
        # (a), b and c are constants outside it
        gp = grounding(P("dom(a). dom(b).\n{q(X)} :- dom(X).\nr :- q(X), dom(a), not q(b).\n"
                         "s :- dom(b), not dom(c), q(a).\n"))
        atoms = [a for r in gp.rules for a in r.head + tuple(l.atom for l in r.body)]
        assert len({id(a) for a in atoms}) == len(set(atoms)) == len(gp.atoms)
        assert all(any(a is b for b in gp.atoms) for a in atoms)
        assert [str(a) for a in gp.atoms][:3] == ["dom(a)", "dom(b)", "dom(c)"]


def _reach_text(index: int, n: int = 14) -> str:
    """Transitive closure over a chain of ``n`` nodes with five cuts, plus
    five soft edges."""
    rng = random.Random(f"reach{n}/{index}")
    cuts = set(rng.sample(range(n - 1), 5))
    lines = [f"node(n{i})." for i in range(n)]
    lines += [f"edge(n{i}, n{i + 1})." for i in range(n - 1) if i not in cuts]
    lines += [f"{rng.uniform(-2, 2):.4f} edge(n{rng.randrange(n)}, n{rng.randrange(n)})."
              for _ in range(5)]
    return ("path(X, Y) :- edge(X, Y).\npath(X, Y) :- path(X, Z), path(Z, Y).\n"
            "reach(X) :- path(n0, X).\n" + "\n".join(lines) + "\n")


def _clique_text(index: int, n: int = 10) -> str:
    rng = random.Random(f"clique{n}/{index}")
    rules = "".join(l + "\n" for l in fixture_path("clique10.lpmln").read_text(
        encoding="utf-8").splitlines() if not l.startswith(("node", "edge")))
    return rules + "".join(f"node(n{i}).\n" for i in range(n)) + "".join(
        f"edge(n{i}, n{j}).\n" for i in range(n) for j in range(n)
        if i == j or rng.random() < 0.5)


def _fixture_programs():
    """Every fixture program, alone and merged with each of its evidence
    files (``bird_evid.db`` goes with ``bird.*``, ``fire_evid_*`` with
    ``fire_bayes``)."""
    folder = fixture_path("bird.lpmln").parent
    evidence = sorted(folder.glob("*_evid*.db"))
    for path in sorted(folder.glob("*.lp*")):
        if ".golden." in path.name:
            continue
        program = parse_program(path.read_text(encoding="utf-8"))
        yield path.name, program
        for ev in evidence:
            if path.stem.startswith(ev.name.split("_evid")[0]):
                yield f"{path.name}+{ev.name}", merge_programs(
                    program, parse_evidence(ev.read_text(encoding="utf-8")))


def _engine_view(gp, hard_mode: str) -> tuple:
    """The enumerator's free atoms in order, its sure atoms and its live
    rules as ``(origin_index, subst)``."""
    enum = StableModelEnumerator(gp, hard_mode)
    atoms = enum.comp.atoms
    return ([atoms[p] for p in enum.free_positions],
            {atoms[p] for p in _bit_indices(enum.sure)},
            [(gp.rules[r.index].origin_index, gp.rules[r.index].subst) for r in enum._live])


def _outcome(render, gp):
    """``render(gp)``, or the type and message of the error it raises, as
    the CLI would report it."""
    try:
        return render(gp)
    except (ValueError, RuntimeError) as e:
        return type(e), str(e)


# a derives q only through rule 1, whose not not atom is underivable
_NOT_NOT = "a :- not not b.\n1 q :- a.\nq :- not p.\n{p}.\n:- not not b.\n"
_FACTS = ("q(a).", 'q("c d").', "r(a, b1).", "r(b1, 0).", "r(0, a).", "z.")


class TestGroundLive:
    """``_ground_live`` keeps exactly the instances ``naive_live`` keeps, in
    ``ground``'s order, with their atoms and ``ground``'s atoms of each
    predicate queried, and fails as ``ground`` fails.  The engine finds the
    same free and sure atoms and the same live rules in it as in
    ``ground``'s."""

    @staticmethod
    def check(program):
        try:
            full = ground(program)
        except GroundingError as e:
            with pytest.raises(type(e)) as caught:
                _ground_live(program)
            assert str(caught.value) == str(e)
            return
        live = _ground_live(program)
        assert live.rules == naive_live(program).rules
        assert live.atoms == naive_atoms(live)
        names = sorted({a.predicate for a in full.atoms})
        every = _ground_live(program, query=tuple(names))
        assert (every.rules, every.atoms) == (live.rules, full.atoms)
        for q in names:
            atoms = _ground_live(program, query=(q,)).atoms
            assert [a for a in atoms if a.predicate == q] == \
                [a for a in full.atoms if a.predicate == q]
            assert all(a.predicate == q for a in set(atoms) - set(live.atoms))
        for hard_mode in ("strict", "relaxed"):
            assert _engine_view(live, hard_mode) == _engine_view(full, hard_mode)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(safe_programs(5), st.sets(st.sampled_from(_FACTS)))
    def test_property_generated_programs(self, program, facts):
        # choices, not not, != against variables and constants, recursion
        # through q/1 and r/2, constraints; the facts make bodies derivable
        self.check(merge_programs(program, P("".join(sorted(facts)))))

    @staticmethod
    def check_output(program):
        """The CLI prints the same MAP, ``-all`` and marginal text, with
        every predicate and one absent name queried, from ``_ground_live``'s
        instances as from ``ground``'s, or fails with the same error."""
        try:
            full = ground(program)
        except GroundingError:
            return  # check compares the grounders' errors
        query = tuple(sorted({a.predicate for a in full.atoms})) + ("absent",)
        cap, scale = DEFAULT_ATOM_CAP, DEFAULT_SCALE
        for hard_mode in ("strict", "relaxed"):
            def marginal(gp):
                warned = io.StringIO()
                return cli._render_marginal(gp, query, hard_mode, cap, warned), warned.getvalue()
            renders = [(lambda gp: cli._render_map(gp, hard_mode, cap, scale), ()),
                       (lambda gp: cli._render_all(gp, hard_mode, cap, scale), ()),
                       (marginal, query)]
            for render, queried in renders:
                live = _ground_live(program, query=queried)
                assert _outcome(render, live) == _outcome(render, full)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(safe_programs(5), st.sets(st.sampled_from(_FACTS)))
    def test_property_cli_output_is_the_same(self, program, facts):
        self.check_output(merge_programs(program, P("".join(sorted(facts)))))

    def test_cli_output_with_a_headless_not_not_instance(self):
        # _ground_live keeps rule 5's instance; the engine drops it
        self.check_output(P(_NOT_NOT))

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(programs(4))
    def test_property_unsafe_and_empty_universe_programs(self, program):
        self.check(program)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.data())
    def test_property_rules_over_a_domain(self, data):
        lines = ["dom(a).", "dom(b)."]
        lines += [_draw_rule(data) for _ in range(data.draw(st.integers(1, 4)))]
        self.check(P("\n".join(lines) + "\n"))

    def test_fixtures_under_each_evidence_file(self):
        names = []
        for name, program in _fixture_programs():
            self.check(program)
            names.append(name)
        assert "fire_bayes.lpmln+fire_evid_diagnostic.db" in names
        assert "bird.lpmln+bird_evid.db" in names

    @pytest.mark.parametrize("name", ["reach14/0", "reach14/3", "clique10/0", "clique10.lpmln"])
    def test_reach_and_clique_instances(self, name):
        family, _, index = name.partition("/")
        if not index:
            text = fixture_path(name).read_text(encoding="utf-8")
        else:
            text = (_reach_text if family == "reach14" else _clique_text)(int(index))
        self.check(P(text))

    def test_errors_match_ground(self):
        for text in ("p(a).\nq(X) :- not p(X).\n", "p(X) :- q(X).\n", "{p(X)} :- not q(X).\n"):
            self.check(P(text))

    @pytest.mark.parametrize("cap, error", [(2, GroundingCapError(2)), (3, EmptyUniverseError(4))])
    def test_cap_comes_before_the_empty_universe(self, cap, error):
        # three instances come before rule 4, the first with variables: over
        # a cap of 2, both grounders stop at the cap first
        for grounding in (ground, _ground_live):
            with pytest.raises(type(error)) as caught:
                grounding(P("a. b. c.\np(X) :- q(X).\n"), cap=cap)
            assert str(caught.value) == str(error)

    def test_a_not_not_instance_is_kept(self):
        # b is underivable, so rules 1 and 5 cannot fire; both are kept, with
        # or without a head, and the engine drops them, so it finds the same
        # derivable atoms, free atoms and live rules as in ground's instances
        program = P(_NOT_NOT)
        gp = _ground_live(program)
        assert [r.origin_index for r in gp.rules] == [1, 2, 3, 4, 5]
        for hard_mode in ("strict", "relaxed"):
            assert _engine_view(gp, hard_mode) == _engine_view(ground(program), hard_mode)

    def test_cap_bounds_every_join_level(self):
        # no instance of rule 5 can fire, but the join of p(X), p(Y) holds 16
        # bindings before s(Y) rules them all out
        text = "p(a). p(b). p(c). p(d).\nr :- p(X), p(Y), s(Y).\n"
        assert len(_ground_live(P(text), cap=16).rules) == 4
        with pytest.raises(GroundingCapError):
            _ground_live(P(text), cap=15)

    def test_cap_bounds_the_query_atoms_tried_under_every_substitution(self):
        # Y has as many inequalities as the universe has constants, so the
        # query's atoms of rule 3 are found by trying every substitution,
        # 4 of them: with the 2 facts, over a cap of 3, as ground counts;
        # unqueried, the rule is only joined, and never fires
        text = "q(a). s(e).\np(X) :- q(X), r(Y), Y != X, Y != a, Y != b, Y != c, Y != d.\n"
        assert len(_ground_live(P(text), cap=3).rules) == 2
        for grounding in (ground, functools.partial(_ground_live, query=("p",))):
            with pytest.raises(GroundingCapError, match="^grounding exceeds the cap of 3 rules$"):
                grounding(P(text), cap=3)

    def test_a_rule_without_variables_fires_once(self):
        # both of c's positive atoms are new in the same round
        text = "a1. a2.\nc :- a1, a2.\n"
        assert [r.origin_index for r in _ground_live(P(text), cap=3).rules] == [1, 2, 3]
        for grounding in (ground, _ground_live):
            with pytest.raises(GroundingCapError):
                grounding(P(text), cap=2)

    def test_the_choice_head_cap_is_hit_inside_complete(self):
        # complete binds the choice head's free Y for each of the join's
        # substitutions and stops once it has made more than the cap, before
        # _derive counts what fired
        program = grounder._desugar_safe(P("r(a). r(b). r(c).\n{p(X, Y)} :- r(X).\n"))
        rule = program.rules[-1]
        universe = program.universe
        pool = grounder._Pool(universe)
        plan = grounder._Join(rule, rule.variables(),
                              grounder._compile(rule, rule.variables(), pool, {}), pool)
        assert plan.free == [1]
        subs = [[x, -1] for x in range(3)]
        assert plan.complete(subs, 9) == [[x, y] for x in range(3) for y in range(3)]
        with pytest.raises(GroundingCapError, match="^grounding exceeds the cap of 5 rules$"):
            plan.complete(subs, 5)

    def test_atoms_sort_by_predicate_arity_and_names(self):
        # the atoms are ordered from the pool's position keys: arity comes
        # before the arguments, and names compare as strings ("10" < "9")
        gp = _ground_live(P("p(9). p(10). p(10, 9). p(9, 10). p(b, 10). q(b).\n"
                            "r(X) :- p(X), q(b).\n"))
        assert [str(a) for a in gp.atoms] == [
            "p(10)", "p(9)", "p(10,9)", "p(9,10)", "p(b,10)", "q(b)", "r(10)", "r(9)"]
        assert gp.atoms == naive_atoms(gp)

    def test_cap_bounds_the_substitutions_found(self):
        # 1 + 2 + ... + 6 path instances can fire on a chain of seven nodes
        text = "".join(f"e({i}, {i + 1}).\n" for i in range(6)) + \
            "p(X, Y) :- e(X, Y).\np(X, Z) :- p(X, Y), e(Y, Z).\n"
        assert len(_ground_live(P(text), cap=6 + 21).rules) == 27
        with pytest.raises(GroundingCapError):
            _ground_live(P(text), cap=26)
