import io
import random
import sys
from itertools import compress
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lpmln import (
    enumerate_sm, fixture_path, ground, is_stable_model, merge_programs, parse_evidence,
    reduce_program,
)
from lpmln import engine
from lpmln.engine import (
    EnumerationCapError, StableModelEnumerator, _bit_indices, _Compiled, _derive, _lane_form,
    _minimal_subsets, _models_reduct, _rule_pass,
)
from lpmln.cli import run
from lpmln.model import atom
from helpers import (
    P, _powerset, naive_is_stable, naive_sm, random_program_text, random_text_with_facts,
    violation_mask,
)


def rules_of(text):
    return ground(P(text)).rules


def sm_sets(models):
    return {frozenset(str(a) for a in m) for m in models}


class TestReduce:
    def test_negation_satisfied(self):
        red = reduce_program(rules_of("a :- not b.\n"), frozenset([atom("a")]))
        assert red.rules == ((frozenset([atom("a")]), frozenset()),)

    def test_double_negation_unsatisfied_drops_rule(self):
        red = reduce_program(rules_of("a :- not not a.\n"), frozenset())
        assert red.rules == ()

    def test_double_negation_satisfied(self):
        red = reduce_program(rules_of("a :- not not a.\n"), frozenset([atom("a")]))
        assert red.rules == ((frozenset([atom("a")]), frozenset()),)

    def test_violated_rules_are_kept(self):
        # the reduct filters on the negative literals only: the first two
        # rules are violated by the empty set and stay, the third goes
        red = reduce_program(rules_of("a :- not b.\nc ; d :- e, not b.\nb :- not not c.\n"),
                             frozenset([atom("x")]))
        assert red.rules == ((frozenset([atom("a")]), frozenset()),
                             (frozenset([atom("c"), atom("d")]), frozenset([atom("e")])))


class TestIsStableModel:
    def test_default_negation(self):
        rs = rules_of("a :- not b.\n")
        assert is_stable_model(rs, frozenset([atom("a")]))
        assert not is_stable_model(rs, frozenset([atom("b")]))

    def test_disjunction_minimality(self):
        rs = rules_of("a ; b.\n")
        assert is_stable_model(rs, frozenset([atom("a")]))
        assert is_stable_model(rs, frozenset([atom("b")]))
        assert not is_stable_model(rs, frozenset([atom("a"), atom("b")]))

    def test_choice_has_two_stable_models(self):
        rs = rules_of("{a}.\n")
        assert is_stable_model(rs, frozenset())
        assert is_stable_model(rs, frozenset([atom("a")]))

    def test_unsupported_atom_rejected(self):
        rs = rules_of("a :- b.\n")
        assert not is_stable_model(rs, frozenset([atom("a"), atom("b")]))

    def test_atom_outside_the_program(self):
        rs = rules_of("{a}.\n")
        assert not is_stable_model(rs, frozenset([atom("z")]))
        assert not is_stable_model(rs, frozenset([atom("a"), atom("z")]))

    def test_minimality_methods_agree_on_nondisjunctive(self):
        rng = random.Random(13)
        for _ in range(60):
            gp = ground(P(random_program_text(rng, rng.randint(1, 5), rng.randint(1, 6),
                                              hard_frac=1.0, allow_disjunction=False)))
            comp = _Compiled(gp)
            n = len(comp.atoms)
            for mask in range(1 << n):
                _, reduct = _rule_pass(_lane_form(comp.rules),
                                       [mask >> p & 1 for p in range(n)], 1)
                pairs = [(r.head, r.pos) for r, _, _, _ in reduct]
                assert _models_reduct(pairs, mask)
                derived = sum(d << p for p, d in enumerate(_derive(reduct, [0] * n)))
                assert (derived == mask) == _minimal_subsets(pairs, mask)

    @pytest.mark.parametrize("seed", range(4))
    def test_every_interpretation_against_oracle(self, seed):
        # non-models too: every subset of the atoms of small programs with
        # disjunction, choice and "not not"
        rng = random.Random(700 + seed)
        for _ in range(25):
            text = random_program_text(rng, rng.randint(1, 5), rng.randint(1, 6),
                                       allow_disjunction=True)
            gp = ground(P(text))
            for sub in _powerset(gp.atoms):
                interp = frozenset(sub)
                assert is_stable_model(gp.rules, interp) == \
                    naive_is_stable(gp.rules, interp), (text, sorted(map(str, interp)))


class TestEnumerateSm:
    def test_bird_strict(self):
        gp = ground(P("bird(X) :- residentbird(X).\nbird(X) :- migratorybird(X).\n"
                      ":- residentbird(X), migratorybird(X).\n"
                      "2 residentbird(jo).\n1 migratorybird(jo).\n"))
        assert sm_sets(enumerate_sm(gp, "strict")) == {
            frozenset(),
            frozenset({"bird(jo)", "residentbird(jo)"}),
            frozenset({"bird(jo)", "migratorybird(jo)"}),
        }

    def test_each_candidate_checked_against_own_rules(self):
        # a hard fact plus a contradicting hard constraint: pure semantics
        # keeps both {a} and {} because each is stable for the rules it keeps
        gp = ground(P("a.\n:- a.\n"))
        assert sm_sets(enumerate_sm(gp, "relaxed")) == {frozenset(), frozenset({"a"})}
        assert enumerate_sm(gp, "strict") == []

    def test_empty_program(self):
        assert enumerate_sm(ground(P(""))) == [frozenset()]

    def test_cap_error_names_cap_and_size(self):
        gp = ground(P("\n".join(f"1 a{k}." for k in range(6)) + "\n"))
        with pytest.raises(EnumerationCapError) as exc:
            enumerate_sm(gp, cap=4)
        assert exc.value.cap == 4
        assert exc.value.size == 6
        assert "4" in str(exc.value) and "6" in str(exc.value)

    def test_cap_error_gives_each_free_atom_a_reason(self):
        gp = ground(P("1 s.\na ; b.\n{c}.\nd.\n"))
        with pytest.raises(EnumerationCapError) as exc:
            StableModelEnumerator(gp, "relaxed", cap=0).models_bits()
        assert str(exc.value).endswith(
            "; free: a (disjunctive head), b (disjunctive head), c (negative cycle), "
            "d (relaxed hard), s (soft head)")

    def test_deterministic_order(self):
        gp = ground(P("{a}. {b}. 1 c :- a, b.\n"))
        assert enumerate_sm(gp) == enumerate_sm(gp)


class TestEngineAgainstNaiveOracle:
    """The enumerator must agree with a from-scratch definitional oracle."""

    @pytest.mark.parametrize("seed", range(8))
    def test_full_agreement_small(self, seed):
        rng = random.Random(seed)
        for _ in range(12):
            text = random_program_text(rng, rng.randint(1, 4), rng.randint(1, 5),
                                       allow_disjunction=True)
            gp = ground(P(text))
            assert sm_sets(enumerate_sm(gp, "relaxed")) == sm_sets(naive_sm(gp)), text
            assert sm_sets(enumerate_sm(gp, "strict")) == \
                sm_sets(naive_sm(gp, require_hard=True)), text

    def test_returned_models_recheck(self):
        rng = random.Random(21)
        for _ in range(30):
            text = random_program_text(rng, rng.randint(1, 7), rng.randint(1, 7))
            gp = ground(P(text))
            for interp in enumerate_sm(gp, "relaxed"):
                satisfied = [r for r in gp.rules
                             if not _body_holds(r, interp) or any(h in interp for h in r.head)]
                assert is_stable_model(satisfied, interp)

    def test_supported_models(self):
        # every true atom in a stable model of a non-disjunctive program has
        # a satisfied rule with true body deriving it
        rng = random.Random(31)
        for _ in range(30):
            text = random_program_text(rng, rng.randint(1, 6), rng.randint(1, 6),
                                       allow_disjunction=False)
            gp = ground(P(text))
            for interp in enumerate_sm(gp, "relaxed"):
                for a in interp:
                    assert any(a in r.head and _body_holds(r, interp)
                               for r in gp.rules
                               if not _body_holds(r, interp)
                               or any(h in interp for h in r.head)), (text, a)


def _body_holds(rule, interp):
    return all((lit.atom in interp) if lit.negation != 1 else (lit.atom not in interp)
               for lit in rule.body)


class TestLargeDeterminedPrograms:
    def test_free_atom_analysis_keeps_clique_tractable(self):
        from lpmln import fixture_path
        gp = ground(P(fixture_path("clique10.lpmln").read_text()))
        enum = StableModelEnumerator(gp, "strict")
        # only the ten choice atoms are free; the 200+ others are determined
        assert len(enum.free_positions) == 10
        assert len(enum.models_bits()) == 1024
        facts = {r.head[0] for r in gp.rules if not r.body}
        assert {a.predicate for a in facts} == {"node", "edge"}
        assert all(enum.sure >> enum.comp.index[a] & 1 for a in facts)
        assert len(enum.residual) < len(gp.rules) / 2

    def test_reach_residual_is_a_small_share(self):
        # transitive closure over a broken chain plus soft shortcut edges:
        # thousands of ground rules, of which only those touching a soft
        # edge can change truth between candidates
        rng = random.Random(7)
        n = 14
        cuts = set(rng.sample(range(n - 1), 5))
        text = ("path(X, Y) :- edge(X, Y).\npath(X, Y) :- path(X, Z), path(Z, Y).\n"
                "reach(X) :- path(n0, X).\n")
        text += "".join(f"node(n{i}).\n" for i in range(n))
        text += "".join(f"edge(n{i}, n{i + 1}).\n" for i in range(n - 1) if i not in cuts)
        text += "".join(f"1.5 edge(n{i + 1}, n{i}).\n" for i in sorted(cuts))
        gp = ground(P(text))
        enum = StableModelEnumerator(gp, "strict")
        assert len(enum.free_positions) == 5
        assert len(enum.residual) < len(gp.rules) / 10
        assert len(enum.models_bits()) == 32


def _assert_matches_full_program(gp, text):
    """Models equal the oracle's in both hard modes, each model's violation
    mask is the oracle's classical one over the full program, and every
    candidate is counted once: as a model, a hard rejection or a minimality
    rejection."""
    for hard_mode in ("relaxed", "strict"):
        enum = StableModelEnumerator(gp, hard_mode)
        assert sm_sets(enum.models()) == \
            sm_sets(naive_sm(gp, require_hard=hard_mode == "strict")), text
        for interp, violated in zip(enum.models(), enum.violations):
            assert violated == violation_mask(gp.rules, interp), text
        assert 2 ** len(enum.free_positions) == len(enum.models_bits()) + \
            enum.rejected_hard + enum.rejected_minimality, text
        if hard_mode == "relaxed":
            assert enum.rejected_hard == 0, text


class TestSpecialisedEnumeration:
    """The enumerator works on the residual rules; what it returns must be
    what the full program gives."""

    @pytest.mark.parametrize("seed", range(6))
    def test_generated_programs_with_fixed_atoms(self, seed):
        rng = random.Random(100 + seed)
        specialised = 0
        for _ in range(25):
            text = random_text_with_facts(rng, rng.randint(2, 6), rng.randint(1, 6),
                                          rng.randint(1, 2))
            gp = ground(P(text))
            _assert_matches_full_program(gp, text)
            specialised += StableModelEnumerator(gp, "strict").sure != 0
        assert specialised >= 5  # the fixed-atom path is really exercised

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.data())
    def test_property_generated_programs(self, data):
        atoms = ("a1", "a2", "a3", "a4", "a5")
        lines = []
        for _ in range(data.draw(st.integers(1, 6))):
            weight = data.draw(st.sampled_from(["", "", "1.5 ", "-2 "]))
            head = data.draw(st.one_of(
                st.just(""), st.sampled_from(atoms),
                st.sampled_from(atoms).map(lambda a: "{" + a + "}"),
                st.lists(st.sampled_from(atoms), min_size=2, max_size=2,
                         unique=True).map(" ; ".join)))
            body = data.draw(st.lists(
                st.tuples(st.sampled_from(["", "not ", "not not "]),
                          st.sampled_from(atoms)).map("".join), max_size=3))
            if not head and not body:
                body = [data.draw(st.sampled_from(atoms))]
            rule = weight + head
            if body:
                rule += (" :- " if head else ":- ") + ", ".join(body)
            lines.append(rule + ".")
        lines += [a + "." for a in data.draw(
            st.lists(st.sampled_from(atoms), max_size=2, unique=True))]
        text = "\n".join(lines) + "\n"
        _assert_matches_full_program(ground(P(text)), text)
        with mock.patch.object(engine, "_LANE_BITS", 1):  # several slices
            _assert_matches_full_program(ground(P(text)), text)


DISJUNCTIVE_BOUNDS = "a ; b :- c.\nc.\nd :- b.\n{x}.\ny :- not not x, z.\n"


class TestDerivability:
    """Rules with a positive or double-negated body atom that nothing can
    derive are left out of the free-atom analysis; models and violation
    masks must still be the full program's."""

    def test_fixpoint_ignores_negation(self):
        comp = _Compiled(ground(P("{a}.\nb :- a, not c.\nd :- not not e.\n"
                                  "f :- d.\n1 g :- u.\n:- a.\n")))
        derived = engine._propagate(comp.rules, 0, -1, 0)
        assert sorted(str(comp.atoms[i]) for i in engine._bit_indices(derived)) == \
            ["a", "b", "d", "f"]
        # every head atom of a disjunctive rule is derivable
        comp = _Compiled(ground(P(DISJUNCTIVE_BOUNDS)))
        derived = engine._propagate(comp.rules, 0, -1, 0)
        assert sorted(str(comp.atoms[i]) for i in engine._bit_indices(derived)) == \
            ["a", "b", "c", "d", "x"]

    @pytest.mark.parametrize("text, sure, varying", [
        ("{f}.\na :- not f.\nb :- not not f.\nc.\nd :- c, not g.\ne :- a, b.\n",
         ["c", "d"], ["a", "b", "e", "f"]),
        (DISJUNCTIVE_BOUNDS, ["c"], ["a", "b", "d", "x"]),
    ])
    def test_bounds(self, text, sure, varying):
        # the lower bound fires a rule only when its negated atoms are in no
        # candidate and its double-negated ones in every candidate; the
        # upper bound when they are in some candidate
        enum = StableModelEnumerator(ground(P(text)), "strict")
        assert sorted(str(enum.comp.atoms[p]) for p in engine._bit_indices(enum.sure)) == sure
        assert [str(enum.comp.atoms[p]) for p in enum._varying] == varying

    def test_underivable_heads_are_not_free(self):
        gp = ground(P("1 p :- u.\n2 q :- not not u.\n{r} :- p.\n{s}.\n:- s, not p.\n"))
        for hard_mode in ("strict", "relaxed"):
            enum = StableModelEnumerator(gp, hard_mode)
            assert [str(enum.comp.atoms[p]) for p in enum.free_positions] == ["s"]
        _assert_matches_full_program(gp, "")

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.data())
    def test_property_underivable_bodies(self, data):
        # u1 and u2 head no rule: every rule using them positively or under
        # two negations is pruned, soft heads among them
        heads = ("a1", "a2", "a3")
        lines = []
        for _ in range(data.draw(st.integers(1, 6))):
            weight = data.draw(st.sampled_from(["", "1.5 ", "-2 ", "0.5 "]))
            head = data.draw(st.one_of(
                st.just(""), st.sampled_from(heads),
                st.sampled_from(heads).map(lambda a: "{" + a + "}"),
                st.lists(st.sampled_from(heads), min_size=2, max_size=2,
                         unique=True).map(" ; ".join)))
            body = data.draw(st.lists(
                st.tuples(st.sampled_from(["", "not ", "not not "]),
                          st.sampled_from(heads + ("u1", "u2"))).map("".join),
                min_size=0 if head else 1, max_size=3))
            rule = weight + head
            if body:
                rule += (" :- " if head else ":- ") + ", ".join(body)
            lines.append(rule + ".")
        text = "\n".join(lines) + "\n"
        gp = ground(P(text))
        _assert_matches_full_program(gp, text)
        with mock.patch.object(engine, "_LANE_BITS", 1):
            _assert_matches_full_program(gp, text)
        for hard_mode in ("strict", "relaxed"):
            enum = StableModelEnumerator(gp, hard_mode)
            derivable = engine._propagate(enum.comp.rules, 0, -1, 0)
            assert all(derivable >> p & 1 for p in enum.free_positions), text


def _fixture_gp(name, evidence=None):
    program = P(fixture_path(name).read_text())
    if evidence:
        program = merge_programs(program, parse_evidence(fixture_path(evidence).read_text()))
    return ground(program)


def _counts(enum):
    models = len(enum.models_bits())  # enumerating sets the counters
    return (2 ** len(enum.free_positions), enum.rejected_hard,
            enum.rejected_minimality, models)


def _candidate_number(enum, bits):
    return sum(1 << j for j, p in enumerate(enum.free_positions) if bits >> p & 1)


def _transpose_by_digits(columns, width, lanes):
    """The reference read-back: one digit string per column, lane m's digits
    joined and read by ``int``.  ``engine._transpose`` must agree with it."""
    if not columns or not lanes:
        return [0] * lanes.bit_count()
    fmt = f"0{width}b"
    # one row per position, highest first, indexed by lane: the vector's
    # digits, or one run of zeros for the positions between two vectors
    rows = []
    above = columns[-1][0] + 1
    for p, vec in reversed(columns):
        if above - p > 1:
            rows.append(["0" * (above - p - 1)] * width)
        rows.append(format(vec, fmt)[::-1])
        above = p
    picked = map("1".__eq__, format(lanes, fmt)[::-1])
    return [int("".join(digits), 2) << above for digits in compress(zip(*rows), picked)]


def _random_columns(rng, width, count, base=0, spread=3, extra=0):
    """``count`` lane vectors at ascending positions from ``base`` with random
    gaps; each may set up to ``extra`` bits above ``width``."""
    positions = sorted(rng.sample(range(base, base + spread * count), count))
    return [(p, rng.getrandbits(width + extra)) for p in positions]


def _naive_bit_indices(bits):
    return [i for i in range(bits.bit_length()) if bits >> i & 1]


def _random_masks(count):
    rng = random.Random(0)
    return [rng.getrandbits(rng.randint(1, 2048)) for _ in range(count)]


@pytest.mark.parametrize("bits", [
    0, 1, 1 << 300, 1 << 700, 0b11, 1 | 1 << 130 | 1 << 276, int("10" * 30, 2) | 1,
    (1 << 1024) - 1, 0x1FF,
    0x7F << 900, 0xFF << 900,  # the last for the loop, the first for the digit pass
] + _random_masks(40), ids=lambda bits: f"{bits.bit_length()}b{bits.bit_count()}")
def test_bit_indices_matches_a_naive_reader(bits):
    # zero or one set bit is read at once, a few by the loop, many by the
    # digit pass: each is the naive reader
    assert engine._bit_indices(bits) == _naive_bit_indices(bits)


class TestBitSlicedKernel:
    """Candidates are decided a slice of 2 ** _LANE_BITS at a time; at every
    lane width the result must be the oracle's, in candidate order."""

    def test_transpose_matches_the_digit_string_reference(self):
        rng = random.Random(19)
        for width in range(1, 1101):  # every padding to whole bytes
            for extra in (0, rng.randint(1, 40)):  # bits above ``width``
                columns = _random_columns(rng, width, rng.randint(1, 12),
                                          base=rng.choice([0, rng.randint(1, 70)]),
                                          spread=rng.randint(1, 4), extra=extra)
                picked = rng.sample(range(width), min(width, rng.randint(1, 8)))  # a few lanes
                few = sum(1 << m for m in picked)
                for lanes in (rng.getrandbits(width), (1 << width) - 1, few):
                    assert engine._transpose(columns, width, lanes) == \
                        _transpose_by_digits(columns, width, lanes), (width, extra)

    def test_transpose_edge_cases(self):
        rng = random.Random(20)
        assert engine._transpose([], 16, 0b1011) == [0, 0, 0]
        assert engine._transpose([(3, 0b101)], 3, 0) == []
        assert engine._transpose([(0, 1)], 1, 1) == [1]
        assert engine._transpose([(5, 0b10), (9, 0b11)], 2, 0b11) == [1 << 9, 1 << 5 | 1 << 9]
        for width in (8, 100, 1024):
            columns = _random_columns(rng, width, 3000, base=7, spread=2)
            for lanes in (rng.getrandbits(width), 1 << (width - 1)):
                assert engine._transpose(columns, width, lanes) == \
                    _transpose_by_digits(columns, width, lanes)

    @staticmethod
    def _pairs_and_groups(rng):
        """At every width up to 1 100: random ``(index, vector)`` pairs, disjoint
        groups over their indices and some others (an index may be in no
        group, and a group may be empty), and lane masks to read."""
        for width in range(1, 1101):
            extra = rng.choice([0, rng.randint(1, 40)])  # bits above ``width``
            pairs = _random_columns(rng, width, rng.randint(0, 12),
                                    base=rng.choice([0, rng.randint(1, 70)]),
                                    spread=rng.randint(1, 4), extra=extra)
            groups = [0] * rng.randint(1, 4)
            for k in range(max((k for k, _ in pairs), default=0) + 8):
                g = rng.randrange(len(groups) + 1)
                if g < len(groups):
                    groups[g] |= 1 << k
            yield width, pairs, groups, (rng.getrandbits(width), (1 << width) - 1, 0)

    def test_count_matches_popcounts_of_the_read_masks(self):
        for width, pairs, groups, masks in self._pairs_and_groups(random.Random(21)):
            for lanes in masks:
                want = [[(mask & g).bit_count() for g in groups]
                        for mask in engine._transpose(pairs, width, lanes)]
                got = [engine._unpack(c, groups) for c in engine._count(pairs, groups, width, lanes)]
                assert got == want, (width, groups)

    @pytest.mark.parametrize("seed", range(3))
    def test_worlds_keep_exactly_the_worlds_of_the_largest_count(self, lane_bits, seed):
        # _worlds keeps the worlds that satisfy every index of the group or,
        # when none does, the most of them, and an empty group keeps every
        # world; a kept world's pairs are its satisfied indices outside the
        # group.  The reference counts each world's random mask.
        rng = random.Random(40 + seed)
        for _ in range(12):
            n, m = rng.randint(0, 10), rng.randint(2, 8)
            truth = [rng.getrandbits(m) for _ in range(1 << n)]  # world w's satisfied indices
            if rng.random() < 0.5:  # indices 0 and 1 never hold together
                truth = [t & ~2 | (~t & 1) << 1 for t in truth]

            def satisfied(val, full):
                worlds = [sum((v >> j & 1) << p for p, v in enumerate(val))
                          for j in range(full.bit_length())]
                return [sum((truth[w] >> k & 1) << j for j, w in enumerate(worlds))
                        for k in range(m)]

            for group in (rng.getrandbits(m) | 0b11, 0):
                counts = [(t & group).bit_count() for t in truth]
                kept = [w for w, c in enumerate(counts) if c == max(counts)]
                bits, masks = engine._worlds(n, satisfied, group).read()
                assert bits == kept, (n, group)
                assert masks == [truth[w] & ~group for w in kept], (n, group)
                if group == 0:
                    assert bits == list(range(1 << n))

    def test_slices_read_back_every_assignment_in_order(self, lane_bits):
        positions = [1, 3, 4]
        read = []
        for val, full in engine._slices(positions, 6):
            assert full == (1 << (1 << min(3, lane_bits))) - 1
            assert val[0] == val[2] == val[5] == 0
            read += engine._transpose(list(enumerate(val)), full.bit_length(), full)
        assert read == [sum(1 << p for j, p in enumerate(positions) if m >> j & 1)
                        for m in range(8)]

    @pytest.mark.parametrize("seed", range(4))
    def test_generated_programs(self, lane_bits, seed):
        rng = random.Random(500 + seed)
        for _ in range(20):
            text = random_text_with_facts(rng, rng.randint(2, 6), rng.randint(1, 7),
                                          rng.randint(0, 2))
            _assert_matches_full_program(ground(P(text)), text)

    def test_no_free_atoms(self, lane_bits):
        enum = StableModelEnumerator(ground(P("a.\nb :- a.\nc :- not a.\n")), "strict")
        assert enum.free_positions == []
        assert sm_sets(enum.models()) == {frozenset({"a", "b"})}
        assert _counts(enum) == (1, 0, 0, 1)

    def test_slice_where_every_lane_fails_a_hard_rule(self, monkeypatch):
        # a is the low free atom, b the high one: the slice with b true is
        # rejected as a whole
        monkeypatch.setattr(engine, "_LANE_BITS", 1)
        enum = StableModelEnumerator(ground(P("{a}.\n{b}.\n:- b.\n")), "strict")
        assert [str(enum.comp.atoms[p]) for p in enum.free_positions] == ["a", "b"]
        assert [enum.comp.interp_of(b) for b in enum.models_bits()] == \
            [frozenset(), frozenset({atom("a")})]
        assert _counts(enum) == (4, 2, 0, 2)

    @pytest.mark.parametrize("bits", [engine._LANE_BITS, 1, 0])
    @pytest.mark.parametrize("text, strict_models", [
        ("{a}.\nb :- not not a.\n", {frozenset(), frozenset({"a", "b"})}),
        ("{a}.\nb :- not a.\n", {frozenset({"a"}), frozenset({"b"})}),
    ])
    def test_closure_reads_negated_atoms(self, monkeypatch, bits, text, strict_models):
        # b is deterministic: a closure stage derives it from the free atom a
        monkeypatch.setattr(engine, "_LANE_BITS", bits)
        gp = ground(P(text))
        assert StableModelEnumerator(gp, "strict").closure_stages
        for hard_mode in ("strict", "relaxed"):
            assert sm_sets(enumerate_sm(gp, hard_mode)) == \
                sm_sets(naive_sm(gp, require_hard=hard_mode == "strict"))
        assert sm_sets(enumerate_sm(gp, "strict")) == strict_models

    @pytest.mark.parametrize("seed", range(3))
    def test_partial_read_back_is_the_full_read(self, lane_bits, seed):
        rng = random.Random(2000 + seed)
        disjunctive = 0
        for _ in range(20):
            text = random_text_with_facts(rng, rng.randint(2, 6), rng.randint(1, 7),
                                          rng.randint(0, 2))
            gp = ground(P(text))
            for hard_mode in ("strict", "relaxed"):
                full = StableModelEnumerator(gp, hard_mode)
                bits, masks = full.models_bits(), full.violations
                n = len(bits)
                # a second enumerator, so that every read below is from its records
                enum = StableModelEnumerator(gp, hard_mode)
                decided = enum._enumerate()
                records = decided.records
                disjunctive += any(r.disjunctive for r in enum.residual)
                for violated, width, stable, columns in records:
                    assert all(lanes and not lanes & ~stable for _, lanes in violated)
                    if not stable:
                        assert (violated, columns) == ([], [])
                subsets = [sorted(rng.sample(range(n), rng.randint(0, n))) for _ in range(4)]
                for picked in [[], list(range(n))] + subsets:
                    assert decided.read(picked) == ([bits[k] for k in picked],
                                                    [masks[k] for k in picked]), (text, picked)
                assert decided.records is records
                assert (enum.models_bits(), enum.violations) == (bits, masks)
                assert decided.records is None  # every model read: the records are dropped
                assert enum._enumerate() is decided  # and nothing is decided again
                assert decided.read(subsets[0]) == ([bits[k] for k in subsets[0]],
                                                    [masks[k] for k in subsets[0]])
        assert disjunctive >= 3  # programs whose residual rules need subset search

    def test_disjunctive_residual_uses_subset_search(self, lane_bits):
        text = "a ; b.\nc :- a.\nc :- b.\n1 d :- c.\n:- a, not c.\n{e} :- d.\n"
        gp = ground(P(text))
        assert any(r.disjunctive for r in StableModelEnumerator(gp, "strict").residual)
        with mock.patch.object(engine, "_minimal_subsets",
                               wraps=engine._minimal_subsets) as search:
            _assert_matches_full_program(gp, text)
        assert search.called

    @pytest.mark.parametrize("seed", range(3))
    def test_stable_lanes_match_subset_search_from_sure(self, lane_bits, monkeypatch, seed):
        # the reference: per lane, subset search over every true atom outside
        # sure; some programs all hard and with facts, so that sure is not empty
        stable_lanes = engine._stable_lanes
        outcomes = set()

        def checked(reduct, val, varying, alive, sure):
            got = stable_lanes(reduct, val, varying, alive, sure)
            assert not got & ~alive
            derived = _derive(reduct, [0] * len(val))
            disjunctive = any(len(head) > 1 for _, head, _, _ in reduct)
            for m in _bit_indices(alive):
                bits = sum(1 << p for p in varying if val[p] >> m & 1) | sure
                lane = [(r.head, r.pos) for r, _, _, keep in reduct if keep >> m & 1]
                want = _minimal_subsets(lane, bits, sure)
                assert (got >> m & 1) == want
                if disjunctive and any((val[p] & ~derived[p]) >> m & 1 for p in varying):
                    outcomes.add((want, bool(sure)))  # a lane the search settles
            return got
        monkeypatch.setattr(engine, "_stable_lanes", checked)
        rng = random.Random(3000 + seed)
        for _ in range(100):
            n = rng.randint(2, 6)
            text = random_program_text(rng, n, rng.randint(1, 8), rng.choice((0.3, 1.0)),
                                       allow_disjunction=True)
            text += "".join(f"a{k}.\n" for k in rng.sample(range(1, n + 1), rng.randint(0, 2)))
            for hard_mode in ("strict", "relaxed"):
                StableModelEnumerator(ground(P(text)), hard_mode)._enumerate()
        # searched lanes accepted and rejected, with sure empty or not
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("edge, mutant", [
        (None, "a ; b."),  # beside perfbench's clique_instance(7, 0)
        ("edge(n1, n5).", "edg;e(n1, n5)."),  # in clique10.lpmln, one token mutated
        ("edge(n8, n0).", "e;dge(n8, n0)."),
    ])
    def test_one_disjunctive_fact_keeps_the_search_below_the_candidates(
            self, monkeypatch, tmp_path, edge, mutant):
        # a clique program plus one disjunctive fact on atoms nothing else
        # mentions: its MAP models are the clique's MAP models, each with one
        # of the fact's atoms.  Every candidate holding one of them is left
        # unfounded, but the search runs only above its derived atoms
        if edge is None:
            monkeypatch.setattr(sys, "dont_write_bytecode", True)
            monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
            import workloads

            base = workloads.clique_instance(7, 0)[0]
            text = base + mutant + "\n"
        else:
            source = fixture_path("clique10.lpmln").read_text(encoding="utf-8")
            assert source.count(edge) == 1
            base, text = source.replace(edge, ""), source.replace(edge, mutant)
        added = mutant[:-1].replace(" ", "").split(";")  # as printed: "edg", "e(n1,n5)"

        def map_models(program):
            path = tmp_path / "in.lpmln"
            path.write_text(program, encoding="utf-8")
            out = io.StringIO()
            assert run(["-i", str(path)], out, io.StringIO()) == 0
            lines = out.getvalue().splitlines()
            assert lines[-1] == "OPTIMUM FOUND"
            return {(frozenset(m.split()), opt) for m, opt in zip(lines[:-1:2], lines[1::2])}

        expected = {(m | {x}, opt) for m, opt in map_models(base) for x in added}
        candidates = 2 ** len(StableModelEnumerator(ground(P(text)), "strict").free_positions)
        models_reduct = engine._models_reduct
        calls = 0

        def counted(reduct, bits):
            nonlocal calls
            calls += 1
            assert calls <= candidates, "more reduct checks than candidates"
            return models_reduct(reduct, bits)
        monkeypatch.setattr(engine, "_models_reduct", counted)
        assert map_models(text) == expected
        assert calls

    def test_fire_bayes_spans_slices_in_candidate_order(self, lane_bits):
        enum = StableModelEnumerator(_fixture_gp("fire_bayes.lpmln"), "strict")
        assert len(enum.free_positions) == 12  # 4 slices at the default width
        numbers = [_candidate_number(enum, b) for b in enum.models_bits()]
        assert numbers == list(range(4096))
        enum = StableModelEnumerator(
            _fixture_gp("fire_bayes.lpmln", "fire_evid_diagnostic.db"), "strict")
        numbers = [_candidate_number(enum, b) for b in enum.models_bits()]
        assert len(numbers) == 2048 and numbers == sorted(set(numbers))

    @pytest.mark.parametrize("name, evidence, hard_mode, counts", [
        ("clique10.lpmln", None, "strict", (1024, 0, 0, 1024)),
        ("fire_bayes.lpmln", "fire_evid_diagnostic.db", "strict", (4096, 2048, 0, 2048)),
        ("bird.lpmln", None, "strict", (4, 1, 0, 3)),
        ("bird.lpmln", None, "relaxed", (8, 0, 1, 7)),
        # smoke(alice) heads soft instances only through influence(_, alice),
        # which nothing derives: it is fixed by its fact, not free
        ("smoke.lpmln", None, "strict", (4, 0, 1, 3)),
    ])
    def test_counters(self, lane_bits, name, evidence, hard_mode, counts):
        # (candidates, rejected_hard, rejected_minimality, models)
        enum = StableModelEnumerator(_fixture_gp(name, evidence), hard_mode)
        assert _counts(enum) == counts


def test_unknown_hard_mode():
    with pytest.raises(ValueError) as exc:
        enumerate_sm(ground(P("a.\n")), "bogus")
    assert str(exc.value) == "unknown hard mode 'bogus'"


def _reachable(succ, v):
    seen, todo = {v}, [v]
    while todo:
        for w in succ[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


class TestRuleGraph:
    """``_tarjan_scc`` numbers the components of the dependency graph
    dependencies first; the free-atom analysis reads negative cycles and
    the closure stages off those ids."""

    def test_components_against_mutual_reachability(self):
        rng = random.Random(2024)
        for _ in range(1500):
            n = rng.randint(0, 12)
            # self-loops and duplicate edges included
            succ = [[rng.randrange(n) for _ in range(rng.randint(0, 4))] for _ in range(n)]
            comp = engine._tarjan_scc(n, succ)
            reach = [_reachable(succ, v) for v in range(n)]
            for v in range(n):
                for w in range(n):
                    same = w in reach[v] and v in reach[w]
                    assert (comp[v] == comp[w]) == same, (succ, v, w)
                for w in succ[v]:
                    assert comp[w] <= comp[v], (succ, v, w)
            assert sorted(set(comp)) == list(range(len(set(comp))))

    def test_long_chain_and_cycle_without_recursion(self):
        n = 5000
        chain = [[v + 1] for v in range(n - 1)] + [[]]
        assert engine._tarjan_scc(n, chain) == list(range(n - 1, -1, -1))
        cycle = [[(v + 1) % n] for v in range(n)]
        assert engine._tarjan_scc(n, cycle) == [0] * n

    @pytest.mark.parametrize("text, hard_mode, free, stages", [
        ("a :- not b.\nb :- not a.\n", "strict",
         [("a", "negative cycle"), ("b", "negative cycle")], []),
        ("a :- not b.\nb :- not a.\n", "relaxed",
         [("a", "negative cycle"), ("b", "negative cycle")], []),
        ("a :- not not a.\n", "strict", [("a", "negative cycle")], []),
        ("a :- not not a.\n", "relaxed", [("a", "negative cycle")], []),
        # p and q are underivable: only r's negative edge to p is left,
        # and it is not inside a component
        ("p :- q.\nq :- p.\nr :- not p.\n", "strict", [], [["r"]]),
        ("p :- q.\nq :- p.\nr :- not p.\n", "relaxed", [("r", "relaxed hard")], []),
        # a positive cycle is one closure stage, computed before what negates it
        ("{c}.\np :- q.\nq :- p.\np :- c.\nr :- not p.\n", "strict",
         [("c", "negative cycle")], [["p", "q", "p"], ["r"]]),
        # a constraint adds no edge, not even last in rule order with z, the
        # atom that sorts last, in its body: b and z stay closure atoms
        ("{a}.\nz :- not a.\nb :- not z.\n:- b, z.\n", "strict",
         [("a", "negative cycle")], [["z"], ["b"]]),
    ])
    def test_negative_cycles_and_stages(self, text, hard_mode, free, stages):
        enum = StableModelEnumerator(ground(P(text)), hard_mode)
        assert enum._free_atoms() == free
        assert [[str(enum.comp.atoms[p]) for r in stage for p in engine._bit_indices(r.head)]
                for stage in enum.closure_stages] == stages
