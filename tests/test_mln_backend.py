import math
import random

import pytest

from lpmln import fixture_path, ground, parse_program
from lpmln.engine import EnumerationCapError
from lpmln.inference import NoStableModelsError, distribution
from lpmln.mln_backend import (
    FALSE, FAnd, FAtom, FIff, FImpl, FNot, FOr, HARD, MlnDistribution, MlnFormula,
    MlnProgram, DisjunctiveProgramError, NotTightError, aux_extract, complete, disj,
    _render_atom, emit_mln_text, evaluate, is_tight, mln_distribution, tseytin,
)
from lpmln.model import atom, soft
from helpers import P, random_tight_text

BIRD_GP = ground(parse_program(fixture_path("bird.lpmln").read_text()))


def fa(name, *args):
    return FAtom(atom(name, *args))


def hard_satisfiable(mln) -> bool:
    """The aux-rewriting equivalence assumes the hard formulas have a model."""
    from itertools import chain, combinations
    hard = [mf.formula for mf in mln.formulas if mf.weight.is_hard]
    atoms = mln.atoms
    for sub in chain.from_iterable(combinations(atoms, k) for k in range(len(atoms) + 1)):
        if all(_holds(f, frozenset(sub)) for f in hard):
            return True
    return False


class TestIsTight:
    def test_bird_tight(self):
        assert is_tight(BIRD_GP)

    def test_recursive_path_not_tight(self):
        gp = ground(P("edge(a, b). edge(b, a).\n"
                      "path(X,Y) :- edge(X,Y).\n"
                      "path(X,Y) :- path(X,Z), path(Z,Y), Y != Z.\n"))
        assert not is_tight(gp)

    def test_empty_tight(self):
        assert is_tight(ground(P("")))

    def test_positive_self_loop_not_tight(self):
        assert not is_tight(ground(P("a :- a.\n")))

    def test_negative_loop_is_tight(self):
        assert is_tight(ground(P("a :- not b.\nb :- not a.\n")))

    def test_choice_rule_is_tight(self):
        assert is_tight(ground(P("{a} :- b.\nb.\n")))

    def test_disjunctive_rejected(self):
        with pytest.raises(DisjunctiveProgramError):
            is_tight(ground(P("a ; b.\n")))

    def test_choice_rule_on_its_own_head_not_tight(self):
        # {a} :- a. desugars to a :- a, not not a: a positive self-loop
        assert not is_tight(ground(P("{a} :- a.\n")))

    def test_double_negated_self_reference_is_tight(self):
        assert is_tight(ground(P("a :- not not a.\n")))

    def test_three_atom_positive_cycle_not_tight(self):
        tight = "d. e :- d, not f. {f} :- d.\ng :- e, not not f.\n"
        assert is_tight(ground(P(tight)))
        assert not is_tight(ground(P(tight + "a :- b, d.\nb :- c.\nc :- a, not e.\n")))

    def test_disjunction_reported_before_a_cycle(self):
        with pytest.raises(DisjunctiveProgramError):
            is_tight(ground(P("a :- a.\nb ; c.\n")))

    def test_reorder_invariant(self):
        rng = random.Random(15)
        for _ in range(20):
            lines = [l for l in random_tight_text(rng, 5, 6).splitlines() if l]
            rng.shuffle(lines)
            t1 = is_tight(ground(P("\n".join(lines) + "\n")))
            rng.shuffle(lines)
            t2 = is_tight(ground(P("\n".join(lines) + "\n")))
            assert t1 == t2


class TestComplete:
    def test_bird_formula_set(self):
        mln = complete(BIRD_GP)
        rb, mb, b = fa("residentbird", "jo"), fa("migratorybird", "jo"), fa("bird", "jo")
        hard = [mf.formula for mf in mln.formulas if mf.weight.is_hard]
        softs = [(mf.weight.value, mf.formula) for mf in mln.formulas if mf.weight.is_soft]
        assert FImpl(rb, b) in hard
        assert FImpl(mb, b) in hard
        assert FNot(FAnd((rb, mb))) in hard
        assert FImpl(b, FOr((rb, mb))) in hard
        assert len(hard) == 4  # completions of rb/mb are trivially true
        assert (2.0, rb) in softs and (1.0, mb) in softs

    def test_atom_with_no_rules_is_denied(self):
        mln = complete(ground(P("q :- p.\nq.\n")))
        assert MlnFormula(HARD, FNot(fa("p"))) in mln.formulas

    def test_single_rule(self):
        mln = complete(ground(P("1.5 a :- b.\n")))
        assert MlnFormula(soft(1.5), FImpl(fa("b"), fa("a"))) in mln.formulas
        assert MlnFormula(HARD, FImpl(fa("a"), fa("b"))) in mln.formulas
        assert MlnFormula(HARD, FNot(fa("b"))) in mln.formulas

    def test_constraint_becomes_negation(self):
        mln = complete(ground(P("{a}. {b}.\n2 :- a, not b.\n")))
        assert MlnFormula(soft(2.0), FNot(FAnd((fa("a"), FNot(fa("b")))))) in mln.formulas

    def test_choice_rule_contributes_disjunct_only(self):
        mln = complete(ground(P("{a} :- b.\nb.\n")))
        # no rule formula mentions a except a's completion
        assert MlnFormula(HARD, FImpl(fa("a"), fa("b"))) in mln.formulas
        assert all(not (isinstance(mf.formula, FImpl) and mf.formula.rhs == fa("a"))
                   for mf in mln.formulas)

    def test_rejects_non_tight(self):
        with pytest.raises(NotTightError):
            complete(ground(P("a :- a.\n")))


class TestTseytin:
    def test_splits_nonliteral_disjuncts(self):
        p, a, b, c, d = fa("p"), fa("a"), fa("b"), fa("c"), fa("d")
        mln = MlnProgram((
            MlnFormula(HARD, FImpl(p, FOr((FAnd((a, b)), FAnd((c, d)))))),
        ))
        out = tseytin(mln)
        aux1, aux2 = (FAtom(x) for x, _ in out.aux_defs)
        assert out.formulas[0] == MlnFormula(HARD, FImpl(p, FOr((aux1, aux2))))
        assert MlnFormula(HARD, FIff(aux1, FAnd((a, b)))) in out.formulas
        assert MlnFormula(HARD, FIff(aux2, FAnd((c, d)))) in out.formulas

    def test_literal_disjuncts_untouched(self):
        mln = complete(BIRD_GP)
        assert tseytin(mln).formulas == mln.formulas

    def test_identical_bodies_share_one_aux(self):
        gp = ground(P("1 p :- a, b.\n1 q :- a, b.\n{a}. {b}.\n"))
        out = tseytin(complete(gp))
        assert len(out.aux_defs) == 1

    def test_distribution_preserved(self):
        rng = random.Random(23)
        for _ in range(20):
            gp = ground(P(random_tight_text(rng, rng.randint(2, 5), rng.randint(2, 6))))
            mln = complete(gp)
            if not hard_satisfiable(mln):
                continue
            rewritten = tseytin(mln)
            base = mln_distribution(mln)
            projected = mln_distribution(rewritten).project(rewritten.aux_atoms)
            for w, p in base.entries:
                assert projected.get(w, 0.0) == pytest.approx(p, abs=1e-9)

    def test_aux_atoms_avoid_the_programs_names(self):
        # the program's own aux_1 is a world atom: the defined atoms skip it
        gp = ground(P("{aux_1}. {a}. {c}. d :- a, c. d :- aux_1. 2 aux_1.\n"))
        rewritten = tseytin(complete(gp))
        assert [str(a) for a, _ in rewritten.aux_defs] == ["aux_2"]
        projected = mln_distribution(rewritten).project(rewritten.aux_atoms)
        source = distribution(gp, "reward")
        assert len(source.entries) == len(projected) == 8
        for e in source.entries:
            assert projected[e.interpretation] == pytest.approx(e.probability, abs=1e-9)
        extracted = aux_extract(rewritten, FAnd((fa("a"), fa("d"))))
        names = [str(a) for a, _ in extracted.aux_defs]
        assert names == ["aux_2", "aux_3"]
        assert not set(names) & {str(a) for a in gp.atoms}


class TestMlnDistribution:
    def test_evaluate_agrees_with_the_reference_in_every_world(self):
        rng = random.Random(9)
        for _ in range(40):
            mln = _random_mln(rng)
            atoms = mln.atoms
            for mask in range(1 << len(atoms)):
                world = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
                for mf in mln.formulas:
                    assert evaluate(mf.formula, world) == _holds(mf.formula, world)

    def test_completed_bird_matches_closed_forms(self):
        d = mln_distribution(complete(BIRD_GP))
        e = math.e
        assert d.marginal_of(atom("bird", "jo")) == \
            pytest.approx((e ** 2 + e) / (1 + e + e ** 2), abs=1e-9)
        assert d.marginal_of(atom("residentbird", "jo")) == \
            pytest.approx(0.665240955775, abs=1e-9)
        assert d.marginal_of(atom("migratorybird", "jo")) == \
            pytest.approx(0.244728471055, abs=1e-9)
        assert abs(d.marginal_of(atom("bird", "jo")) - 0.90296) < 0.02

    def test_smoke_formulas_under_mln_semantics(self):
        # ground smoker network with the influence relation fixed closed-world
        people = ["alice", "bob", "carol"]
        formulas = []
        for x in people:
            for y in people:
                formulas.append(MlnFormula(soft(1.0), FImpl(
                    FAnd((fa("smoke", x), fa("influence", x, y))), fa("smoke", y))))
        formulas.append(MlnFormula(HARD, fa("smoke", "alice")))
        fixed = {("alice", "bob"), ("bob", "carol")}
        for x in people:
            for y in people:
                f = fa("influence", x, y)
                formulas.append(MlnFormula(HARD, f if (x, y) in fixed else FNot(f)))
        d = mln_distribution(MlnProgram(tuple(formulas)))
        e = math.e
        expected = (e ** 8 + e ** 9) / (3 * e ** 8 + e ** 9)
        assert expected == pytest.approx(0.650244590946, abs=1e-9)
        assert d.marginal_of(atom("smoke", "bob")) == pytest.approx(expected, abs=1e-9)
        assert d.marginal_of(atom("smoke", "carol")) == pytest.approx(expected, abs=1e-9)

    def test_single_hard_formula(self):
        d = mln_distribution(MlnProgram((MlnFormula(HARD, fa("a")),)))
        assert d.probability(frozenset([atom("a")])) == 1.0
        assert d.probability(frozenset()) == 0.0
        # a float 0.0 for an atom in no world
        none = d.marginal_of(atom("b"))
        assert none == 0.0 and isinstance(none, float)

    def test_empty_junctions(self):
        assert disj(()) == FALSE
        mln = MlnProgram((MlnFormula(HARD, FAnd(())), MlnFormula(HARD, FOr(()))))
        assert emit_mln_text(mln) == "TRUE.\nFALSE.\n"

    def test_cap_error_names_world_and_aux_atoms(self):
        mln = tseytin(complete(ground(P("b. c.\na :- b, c.\n"))))
        assert [str(a) for a, _ in mln.aux_defs] == ["aux_1"]
        with pytest.raises(EnumerationCapError) as exc:
            mln_distribution(mln, cap=2)
        assert (exc.value.cap, exc.value.size) == (2, 4)
        assert str(exc.value).endswith(
            "; free: a (world atom), aux_1 (aux atom), b (world atom), c (world atom)")

    def test_lexicographic_fallback_when_hard_unsatisfiable(self):
        d = mln_distribution(MlnProgram((
            MlnFormula(HARD, fa("a")), MlnFormula(HARD, FNot(fa("a"))),
            MlnFormula(HARD, fa("b")),
        )))
        # both worlds with b satisfy two of three hard formulas
        assert d.probability(frozenset([atom("a"), atom("b")])) == pytest.approx(0.5)
        assert d.probability(frozenset([atom("b")])) == pytest.approx(0.5)


    def test_infinite_soft_total_is_an_error(self):
        # the world {a, b} adds up to inf: exp(inf - inf) has no value
        big = soft(float("1" + "0" * 308))
        with pytest.raises(ValueError) as exc:
            mln_distribution(MlnProgram((MlnFormula(big, fa("a")), MlnFormula(big, fa("b")))))
        assert str(exc.value) == "soft weights add up past the float range"


class TestLaneWidths:
    """Worlds are evaluated a slice of 2 ** _LANE_BITS at a time; at every
    width the distribution is the world-by-world one, float for float."""

    @pytest.mark.parametrize("seed", range(3))
    def test_random_mlns(self, lane_bits, seed):
        # whole-number weights (scale 1) are weighed by class
        rng = random.Random(900 + seed)
        for scale in (1000, 1):
            for _ in range(40):
                mln = _random_mln(rng, scale)
                assert mln_distribution(mln) == _world_by_world(mln)

    def test_twelve_atoms_with_unsatisfiable_hard_formulas(self, lane_bits):
        rng = random.Random(12)
        names = [f"a{k}" for k in range(12)]
        formulas = [MlnFormula(HARD, fa("a0")), MlnFormula(HARD, FNot(fa("a0")))]
        for k in range(11):
            formulas.append(MlnFormula(HARD, FImpl(fa(names[k]), fa(names[k + 1]))))
        for _ in range(8):
            formulas.append(MlnFormula(soft(rng.randint(-2000, 2000) / 1000),
                                       _random_formula(rng, names, 2)))
        mln = MlnProgram(tuple(formulas))
        d = mln_distribution(mln)
        # every world misses a0 or !a0; the best also keep the whole chain
        assert len(d.entries) == 13
        assert d == _world_by_world(mln)

    def test_best_hard_tier_only_in_the_last_world(self, lane_bits):
        # no world satisfies a0 and !a0; the fallback's best tier rises
        # slice by slice up to the last world, which satisfies the rest
        names = [f"a{k}" for k in range(12)]
        formulas = [MlnFormula(HARD, fa("a0")), MlnFormula(HARD, FNot(fa("a0")))]
        formulas += [MlnFormula(HARD, fa(a)) for a in names]
        formulas.append(MlnFormula(soft(1.5), FNot(fa("a3"))))
        mln = MlnProgram(tuple(formulas))
        d = mln_distribution(mln)
        assert d.entries == ((frozenset(atom(a) for a in names), 1.0),)
        assert d == _world_by_world(mln)

    @pytest.mark.parametrize("weights", [(1.5, -0.5, 2.0), (3.0, -1.0, 2.0)])
    def test_only_the_last_world_satisfies_every_hard_formula(self, lane_bits, weights):
        # no slice before the last holds a world satisfying every hard formula
        names = [f"a{k}" for k in range(12)]
        formulas = [MlnFormula(HARD, fa("a0"))]
        formulas += [MlnFormula(HARD, FImpl(fa(names[k]), fa(names[k + 1]))) for k in range(11)]
        formulas += [MlnFormula(soft(w), FNot(fa(a))) for w, a in zip(weights, names)]
        mln = MlnProgram(tuple(formulas))
        d = mln_distribution(mln)
        assert d.entries == ((frozenset(atom(a) for a in names), 1.0),)
        assert d == _world_by_world(mln)

    # whole-number weights are weighed one popcount per distinct weight: -0.0
    # and a zero count of -5; a sum of 2**53 that a grouping would make
    # 2**53 + 2; a mixed program that a grouping would round differently
    @pytest.mark.parametrize("weights", [(-0.0, -5.0, 5.0), (2.0 ** 53, 1.0, 1.0),
                                         (0.1, 1.0, 0.1)])
    def test_whole_weight_pins(self, lane_bits, weights):
        mln = MlnProgram(tuple(MlnFormula(soft(w), fa(a)) for w, a in zip(weights, "abc")))
        assert mln_distribution(mln) == _world_by_world(mln)


class TestAuxExtract:
    def test_aux_equals_definition_in_support(self):
        rng = random.Random(8)
        for _ in range(30):
            mln = _random_mln(rng)
            target = _random_subformula(rng, mln)
            if target is None or not hard_satisfiable(mln):
                continue
            rewritten = aux_extract(mln, target)
            aux_atom, definition = rewritten.aux_defs[-1]
            d = mln_distribution(rewritten)
            for w, p in d.entries:
                if p > 0:
                    assert (aux_atom in w) == _holds(definition, w)

    def test_marginalizes_back_exactly(self):
        rng = random.Random(18)
        for _ in range(30):
            mln = _random_mln(rng)
            target = _random_subformula(rng, mln)
            if target is None or not hard_satisfiable(mln):
                continue
            rewritten = aux_extract(mln, target)
            base = mln_distribution(mln)
            projected = mln_distribution(rewritten).project(rewritten.aux_atoms)
            for w, p in base.entries:
                assert projected.get(w, 0.0) == pytest.approx(p, abs=1e-9)


class TestCompletionSoundness:
    def test_random_tight_programs_match_source_distribution(self):
        rng = random.Random(2718)
        checked = 0
        while checked < 30:
            gp = ground(P(random_tight_text(rng, rng.randint(2, 6), rng.randint(1, 6))))
            try:
                src = distribution(gp, "reward", "strict")
            except NoStableModelsError:
                continue
            checked += 1
            mln_d = mln_distribution(complete(gp))
            projected = mln_d.project(set(mln_d.atoms) - set(gp.atoms))
            support = {e.interpretation: e.probability for e in src.entries}
            for world, p in projected.items():
                assert support.get(world, 0.0) == pytest.approx(p, abs=1e-9)
            for world, p in support.items():
                assert projected.get(world, 0.0) == pytest.approx(p, abs=1e-9)

    def test_embedding_consistency(self):
        # adding a choice rule per atom makes the stable-model semantics
        # coincide with the weighted-formula semantics of the same rules
        from lpmln.frontends import mln_embed
        rng = random.Random(31415)
        for _ in range(20):
            n = rng.randint(1, 4)
            lines = []
            formulas = []
            for _ in range(rng.randint(1, 5)):
                head = f"a{rng.randint(1, n)}"
                body = [(b, rng.random() < 0.4)
                        for b in rng.sample([f"a{k}" for k in range(1, n + 1)],
                                            rng.randint(0, min(2, n)))]
                w = rng.randint(-2000, 2000) / 1000
                body_txt = ", ".join(("not " if neg else "") + b for b, neg in body)
                lines.append(f"{w:g} {head}" + (f" :- {body_txt}" if body else "") + ".")
                body_f = FAnd(tuple(FNot(fa(b)) if neg else fa(b) for b, neg in body))
                formulas.append(MlnFormula(
                    soft(w), FImpl(body_f, fa(head)) if body else fa(head)))
            prog = mln_embed(P("\n".join(lines) + "\n"))
            lp = distribution(ground(prog), "reward", "strict")
            md = mln_distribution(MlnProgram(tuple(formulas)))
            for e in lp.entries:
                assert md.probability(e.interpretation) == \
                    pytest.approx(e.probability, abs=1e-9)


class TestEmission:
    def test_bird_golden(self):
        out = emit_mln_text(tseytin(complete(BIRD_GP)))
        assert out == fixture_path("bird_completed.golden.mln").read_text()

    def test_declarations_only_for_empty(self):
        out = emit_mln_text(MlnProgram(()))
        assert out == ""

    def test_hard_trailing_dot_soft_weight_prefix(self):
        out = emit_mln_text(MlnProgram((
            MlnFormula(HARD, fa("p", "c")),
            MlnFormula(soft(2.0), fa("q", "c")),
        )))
        lines = out.strip().splitlines()
        assert "P(C)." in lines
        assert "2 Q(C)" in lines

    def test_aux_mapping_comment(self):
        p, a, b = fa("p"), fa("a"), fa("b")
        mln = tseytin(MlnProgram((
            MlnFormula(HARD, FImpl(p, FOr((FAnd((a, b)), p)))),)))
        out = emit_mln_text(mln)
        assert "// Aux_1 <=> A ^ B" in out

    def test_quoted_and_bare_constants_stay_distinct(self):
        out = emit_mln_text(complete(ground(P('p(a). p("a"). 1 q(X) :- p(X).\n'))))
        lines = out.splitlines()
        assert lines[0] == 'entity={"a", A}'
        formulas = lines[lines.index("Q(entity)") + 2:]
        assert len(formulas) == 6 and len(set(formulas)) == 6, out
        assert 'P("a").' in formulas and "P(A)." in formulas

    def test_quoted_constant_with_a_space_is_rendered_quoted(self):
        out = emit_mln_text(complete(ground(P('{p("x y")}.\n'))))
        assert out.splitlines()[0] == 'entity={"x y"}'

    def test_distinct_atoms_render_to_distinct_strings(self):
        text = 'q(a). q("a"). q("x y"). q(0). q(b0). {p(X, Y)} :- q(X), q(Y).\n'
        atoms = complete(ground(P(text))).atoms
        assert len(atoms) == 5 + 25
        assert len({_render_atom(a) for a in atoms}) == len(atoms)
        assert {_render_atom(a) for a in atoms if a.predicate == "q"} == \
            {"Q(A)", 'Q("a")', 'Q("x y")', "Q(0)", "Q(B0)"}


def _random_formula(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.35:
        return fa(rng.choice(atoms))
    kind = rng.randrange(5)
    if kind == 0:
        return FNot(_random_formula(rng, atoms, depth - 1))
    if kind == 1:
        return FAnd(tuple(_random_formula(rng, atoms, depth - 1)
                          for _ in range(rng.randint(2, 3))))
    if kind == 2:
        return FOr(tuple(_random_formula(rng, atoms, depth - 1)
                         for _ in range(rng.randint(2, 3))))
    if kind == 3:
        return FImpl(_random_formula(rng, atoms, depth - 1),
                     _random_formula(rng, atoms, depth - 1))
    return FIff(_random_formula(rng, atoms, depth - 1),
                _random_formula(rng, atoms, depth - 1))


def _random_mln(rng, scale: int = 1000) -> MlnProgram:
    """Up to four formulas over two to five atoms; each soft weight is a
    multiple of 1 / ``scale`` in [-2, 2]."""
    names = [f"a{k}" for k in range(1, rng.randint(2, 5) + 1)]
    formulas = []
    for _ in range(rng.randint(1, 4)):
        w = HARD if rng.random() < 0.3 else soft(rng.randint(-2 * scale, 2 * scale) / scale)
        formulas.append(MlnFormula(w, _random_formula(rng, names, 2)))
    return MlnProgram(tuple(formulas))


def _collect_compound(f):
    out = []
    if not isinstance(f, FAtom):
        if not (isinstance(f, FNot) and isinstance(f.sub, FAtom)):
            out.append(f)
    for child in (getattr(f, "subs", ()) or ()):
        out.extend(_collect_compound(child))
    for name in ("sub", "lhs", "rhs"):
        child = getattr(f, name, None)
        if child is not None:
            out.extend(_collect_compound(child))
    return out


def _random_subformula(rng, mln):
    pool = []
    for mf in mln.formulas:
        pool.extend(_collect_compound(mf.formula))
    return rng.choice(pool) if pool else None


def _holds(f, world) -> bool:
    if isinstance(f, FAtom):
        return f.atom in world
    if isinstance(f, FNot):
        return not _holds(f.sub, world)
    if isinstance(f, FAnd):
        return all(_holds(s, world) for s in f.subs)
    if isinstance(f, FOr):
        return any(_holds(s, world) for s in f.subs)
    if isinstance(f, FImpl):
        return not _holds(f.lhs, world) or _holds(f.rhs, world)
    return _holds(f.lhs, world) == _holds(f.rhs, world)


def _world_by_world(mln) -> MlnDistribution:
    """``mln_distribution`` one world and one formula at a time: worlds in
    ascending order (bit i for atom i), floats added in the same order."""
    atoms = mln.atoms
    scored = []
    for mask in range(1 << len(atoms)):
        world = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
        hard, total = 0, 0.0
        for mf in mln.formulas:
            if _holds(mf.formula, world):
                if mf.weight.is_hard:
                    hard += 1
                else:
                    total += mf.weight.value
        scored.append((hard, world, total))
    best = max(hard for hard, _, _ in scored)
    tier = [(world, total) for hard, world, total in scored if hard == best]
    shift = max(total for _, total in tier)
    norm = 0.0
    for _, total in tier:
        norm += math.exp(total - shift)
    return MlnDistribution(atoms, tuple((world, math.exp(total - shift) / norm)
                                        for world, total in tier))
