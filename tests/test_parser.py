import math
import pickle
import random

import pytest
from hypothesis import given, settings

from lpmln import (
    LpmlnSyntaxError, fixture_path, parse_evidence, parse_program,
    parse_query_spec, pretty_program,
)
from lpmln.model import Atom, Inequality, Literal, Program, Rule, Weight
from lpmln.parser import SourceSpan, _Parser, _tokenize
from helpers import random_program_text
from strategies import programs


BIRD = fixture_path("bird.lpmln").read_text()


class TestParseProgram:
    def test_bird_weights_and_indices(self):
        prog = parse_program(BIRD)
        assert len(prog.rules) == 5
        assert [r.index for r in prog.rules] == [1, 2, 3, 4, 5]
        assert [r.weight.is_hard for r in prog.rules] == [True, True, True, False, False]
        assert prog.rules[3].weight.value == 2.0
        assert prog.rules[4].weight.value == 1.0
        assert prog.rules[2].is_constraint

    def test_empty_input(self):
        assert parse_program("") == parse_program("  % just a comment\n")
        assert len(parse_program("")) == 0

    def test_log_weight_ratio(self):
        prog = parse_program("@log(0.7/0.3) u.\n")
        assert prog.rules[0].weight.value == pytest.approx(math.log(0.7 / 0.3), abs=1e-12)
        assert prog.rules[0].weight.value == pytest.approx(0.8472978604, abs=1e-9)

    def test_log_weight_plain(self):
        prog = parse_program("@log(0.5) a.\n")
        assert prog.rules[0].weight.value == pytest.approx(math.log(0.5), abs=1e-15)

    def test_negative_weight(self):
        prog = parse_program('-0.028801991603851305 drc("pubmed_10075692","hgnc_620").\n')
        assert prog.rules[0].weight.value == pytest.approx(-0.028801991603851305)
        assert prog.rules[0].head[0].args[0].name == '"pubmed_10075692"'

    def test_choice_rules(self):
        prog = parse_program("{in(X)} :- node(X).\n2 {a}.\n")
        assert prog.rules[0].is_choice and prog.rules[0].weight.is_hard
        assert prog.rules[1].is_choice and prog.rules[1].weight.value == 2.0

    def test_disjunctive_head(self):
        rule = parse_program("a ; b :- c.\n").rules[0]
        assert [a.predicate for a in rule.head] == ["a", "b"]

    def test_inequality_builtin(self):
        rule = parse_program("path(X,Y) :- path(X,Z), path(Z,Y), Y != Z.\n").rules[0]
        assert isinstance(rule.body[-1], Inequality)

    def test_double_negation(self):
        rule = parse_program("a :- not not sat.\n").rules[0]
        assert rule.body[0].negation == 2

    def test_integer_like_head_vs_weight(self):
        # leading numeral separated by whitespace is a weight
        prog = parse_program("2 residentbird(jo).\n")
        assert prog.rules[0].weight.value == 2.0
        assert prog.rules[0].head[0].predicate == "residentbird"


class TestTermsPerParse:
    TEXT = 'p(a, X, "s", 1) :- q(X, a), a != X.\nq(a, 1).\n'

    @staticmethod
    def _terms(prog):
        rule, fact = prog.rules
        return (rule.head[0].args, rule.body[0].atom.args, (rule.body[1].lhs, rule.body[1].rhs),
                fact.head[0].args)

    def test_one_term_per_spelling_within_a_parse(self):
        (a, x, s, one), (x2, a2), (a3, x3), (a4, one2) = self._terms(parse_program(self.TEXT))
        assert a is a2 is a3 is a4 and x is x2 is x3 and one is one2
        assert len({id(t) for t in (a, x, s, one)}) == 4

    def test_separate_parses_share_nothing(self):
        one, two = parse_program(self.TEXT), parse_program(self.TEXT)
        for ts, us in zip(self._terms(one), self._terms(two)):
            for t, u in zip(ts, us):
                assert t is not u and t == u and hash(t) == hash(u)
        assert one == two and hash(one) == hash(two)
        back = pickle.loads(pickle.dumps(one))
        assert back == one and hash(back) == hash(one) and str(back) == str(one)
        assert pickle.loads(pickle.dumps(self._terms(one)[0][0])).__dict__ == {"name": "a"}


class TestPeek:
    def test_peek_past_the_last_token_reads_end_of_input(self):
        p = _Parser("a.")
        assert p.peek(1).text == "."
        p.next()
        assert p.peek(1).kind == "EOF"
        p.next()
        assert p.peek().kind == p.peek(1).kind == "EOF"
        assert p.peek(1).span == p.peek().span == SourceSpan(1, 3, 0)
        assert p.next().kind == "EOF" and p.peek().kind == "EOF"  # next stays at the end

    @pytest.mark.parametrize("text, message", [
        ("2", "1:2: expected a predicate name, found 'end of input'"),
        ("a :- b", "1:7: expected '.', found 'end of input'"),
        ("a :- b,", "1:8: expected a term, found 'end of input'"),
    ])
    def test_the_last_token_looks_ahead_to_end_of_input(self, text, message):
        with pytest.raises(LpmlnSyntaxError) as exc:
            parse_program(text)
        assert str(exc.value) == message


class TestParseErrors:
    @pytest.mark.parametrize("text", [
        "2.x u.\n",
        "@log(0) a.\n",
        "@log(0.5/0) a.\n",
        "@log(-2) a.\n",
        "p(.\n",
        "p(a)\n",          # missing terminating dot
        ":- .\n",
        "p :- q r.\n",
    ])
    def test_rejects_with_span(self, text):
        with pytest.raises(LpmlnSyntaxError) as exc:
            parse_program(text)
        assert exc.value.span.line >= 1
        assert exc.value.span.column >= 1

    @pytest.mark.parametrize("text, column, found", [
        ("1e16 :- a.\n", 2, "e"),  # once weight 1.0 with head e16
        ("2a.\n", 2, "a"),         # once "2 a."
        ("1.5e3 a.\n", 4, "e"),    # once "expected '.', found 'a'"
    ])
    def test_numeral_glued_to_a_name(self, text, column, found):
        with pytest.raises(LpmlnSyntaxError) as exc:
            parse_program(text)
        assert (exc.value.span.line, exc.value.span.column) == (1, column)
        assert exc.value.message == \
            f"a numeral must be followed by a space or punctuation, found {found!r}"

    @pytest.mark.parametrize("text, column, found", [
        ("² a.\n", 1, "²"),         # once a bare ValueError from float()
        ("٣ a.\n", 1, "٣"),         # once a soft fact of weight 3.0
        ("p(٣).\n", 3, "٣"),
        ("@log(²) a.\n", 6, "²"),
    ])
    def test_numerals_are_ascii(self, text, column, found):
        with pytest.raises(LpmlnSyntaxError) as exc:
            parse_program(text)
        assert str(exc.value) == f"1:{column}: unexpected character {found!r}"

    @pytest.mark.parametrize("text, message", [
        ("@log(x) a.\n", "1:6: @log expects a number"),
        ("@log(1/x) a.\n", "1:8: @log expects a number after '/'"),
    ])
    def test_log_weight_needs_numbers(self, text, message):
        with pytest.raises(LpmlnSyntaxError) as exc:
            parse_program(text)
        assert str(exc.value) == message

    def test_never_panics_on_arbitrary_bytes(self):
        rng = random.Random(99)
        alphabet = "abXY01(){};,.:-!=@\"% \n\t\\'~$\x00\x7fé√²٣"
        for _ in range(500):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
            try:
                parse_program(text)
            except LpmlnSyntaxError:
                pass


# Recorded with the character-loop tokenizer that the lexeme table replaced:
# every token, span and message must stay as it was.
_TOKENS = [
    ('p(X, "q r", 7, -3) :- not q, X != a.', [
        ("IDENT", "p", 1, 1, 1), ("PUNCT", "(", 1, 2, 1), ("VAR", "X", 1, 3, 1),
        ("PUNCT", ",", 1, 4, 1), ("QUOTED", '"q r"', 1, 6, 5), ("PUNCT", ",", 1, 11, 1),
        ("NUM", "7", 1, 13, 1), ("PUNCT", ",", 1, 14, 1), ("NUM", "-3", 1, 16, 2),
        ("PUNCT", ")", 1, 18, 1), ("PUNCT", ":-", 1, 20, 2), ("IDENT", "not", 1, 23, 3),
        ("IDENT", "q", 1, 27, 1), ("PUNCT", ",", 1, 28, 1), ("VAR", "X", 1, 30, 1),
        ("PUNCT", "!=", 1, 32, 2), ("IDENT", "a", 1, 35, 1), ("PUNCT", ".", 1, 36, 1),
        ("EOF", "", 1, 37, 0)]),
    ("-0.5 a.", [("NUM", "-0.5", 1, 1, 4), ("IDENT", "a", 1, 6, 1),
                 ("PUNCT", ".", 1, 7, 1), ("EOF", "", 1, 8, 0)]),
    ("1.25 :: b", [("NUM", "1.25", 1, 1, 4), ("PUNCT", "::", 1, 6, 2),
                   ("IDENT", "b", 1, 9, 1), ("EOF", "", 1, 10, 0)]),
    # end of input after a final comment sits at the comment's column
    ("{c} :- d; e. % note", [
        ("PUNCT", "{", 1, 1, 1), ("IDENT", "c", 1, 2, 1), ("PUNCT", "}", 1, 3, 1),
        ("PUNCT", ":-", 1, 5, 2), ("IDENT", "d", 1, 8, 1), ("PUNCT", ";", 1, 9, 1),
        ("IDENT", "e", 1, 11, 1), ("PUNCT", ".", 1, 12, 1), ("EOF", "", 1, 14, 0)]),
    ("@log(2/3) f.", [
        ("PUNCT", "@", 1, 1, 1), ("IDENT", "log", 1, 2, 3), ("PUNCT", "(", 1, 5, 1),
        ("NUM", "2", 1, 6, 1), ("PUNCT", "/", 1, 7, 1), ("NUM", "3", 1, 8, 1),
        ("PUNCT", ")", 1, 9, 1), ("IDENT", "f", 1, 11, 1), ("PUNCT", ".", 1, 12, 1),
        ("EOF", "", 1, 13, 0)]),
    ("a.\n  b.", [("IDENT", "a", 1, 1, 1), ("PUNCT", ".", 1, 2, 1), ("IDENT", "b", 2, 3, 1),
                  ("PUNCT", ".", 2, 4, 1), ("EOF", "", 2, 5, 0)]),
    ("Ab_9 x1", [("VAR", "Ab_9", 1, 1, 4), ("IDENT", "x1", 1, 6, 2), ("EOF", "", 1, 8, 0)]),
]

_TOKEN_ERRORS = [
    ('"abc\nd".', "1:1: unterminated quoted constant", 1),
    ('"abc', "1:1: unterminated quoted constant", 1),
    ("a :-\tb ~.", "1:8: unexpected character '~'", 1),
    ("a.\r\n$", "2:1: unexpected character '$'", 1),
    ("a : b", "1:3: unexpected character ':'", 1),
    ("- a", "1:1: unexpected character '-'", 1),
    ("2a.", "1:2: a numeral must be followed by a space or punctuation, found 'a'", 1),
    ("-1.5x", "1:5: a numeral must be followed by a space or punctuation, found 'x'", 1),
    ("_a.", "1:1: identifiers must start with a letter", 2),
]


class TestTokenize:
    @pytest.mark.parametrize("text, tokens", _TOKENS)
    def test_tokens_and_spans(self, text, tokens):
        assert [(t.kind, t.text, t.span.line, t.span.column, t.span.length)
                for t in _tokenize(text)] == tokens

    @pytest.mark.parametrize("text, message, length", _TOKEN_ERRORS)
    def test_errors_and_spans(self, text, message, length):
        with pytest.raises(LpmlnSyntaxError) as exc:
            _tokenize(text)
        assert (str(exc.value), exc.value.span.length) == (message, length)

    @pytest.mark.parametrize("text, message", [
        ("a :- b % c", "1:8: expected '.', found 'end of input'"),
        ("_a.", "1:1: identifiers must start with a letter"),
    ])
    def test_parse_error_columns(self, text, message):
        with pytest.raises(LpmlnSyntaxError) as exc:
            parse_program(text)
        assert str(exc.value) == message


class TestParseEvidence:
    def test_constraint(self):
        prog = parse_evidence(":- not bird(jo).\n")
        assert len(prog.rules) == 1
        assert prog.rules[0].is_constraint and prog.rules[0].weight.is_hard

    def test_fact_and_constraint(self):
        prog = parse_evidence("do(a0).\n:- not d.\n")
        assert [r.weight.is_hard for r in prog.rules] == [True, True]
        assert str(prog.rules[0].head[0]) == "do(a0)"

    def test_empty(self):
        assert len(parse_evidence("")) == 0

    def test_rejects_weighted_rule(self):
        with pytest.raises(LpmlnSyntaxError):
            parse_evidence("2 a.\n")
        with pytest.raises(LpmlnSyntaxError):
            parse_evidence("@log(0.5) a.\n")


class TestParseQuerySpec:
    def test_single(self):
        assert parse_query_spec("residentbird") == ("residentbird",)
        assert parse_query_spec("smoke") == ("smoke",)

    def test_many(self):
        assert parse_query_spec("a,b,c") == ("a", "b", "c")
        assert parse_query_spec(" a , b ") == ("a", "b")

    def test_empty_name_rejected(self):
        with pytest.raises(LpmlnSyntaxError):
            parse_query_spec("a,,b")

    @pytest.mark.parametrize("text, column", [
        ("a,,b", 3), (",a", 1), ("a,", 3), ("ab, ,c", 4), ("abc,de,", 8),
    ])
    def test_empty_name_span_is_its_column(self, text, column):
        with pytest.raises(LpmlnSyntaxError) as exc:
            parse_query_spec(text)
        assert (exc.value.span.line, exc.value.span.column) == (1, column)
        assert str(exc.value) == f"1:{column}: empty predicate name"


class TestRoundTrip:
    @pytest.mark.parametrize("name", [
        "bird.lpmln", "smoke.lpmln", "smoke_mln.lpmln",
        "pcm_firing_squad.lpmln", "fire_bayes.lpmln", "clique10.lpmln",
    ])
    def test_fixtures_round_trip(self, name):
        prog = parse_program(fixture_path(name).read_text())
        again = parse_program(pretty_program(prog))
        assert len(again) == len(prog)
        for a, b in zip(prog.rules, again.rules):
            assert (a.head, a.body, a.is_choice, a.index) == (b.head, b.body, b.is_choice, b.index)
            if a.weight.is_soft:
                assert abs(a.weight.value - b.weight.value) < 1e-12
            else:
                assert b.weight.is_hard

    def test_random_round_trip(self):
        rng = random.Random(5)
        for _ in range(40):
            text = random_program_text(rng, rng.randint(1, 6), rng.randint(1, 7),
                                       allow_disjunction=True)
            prog = parse_program(text)
            assert parse_program(pretty_program(prog)) == prog

    @pytest.mark.parametrize("weight, text", [
        (0.00001, "0.00001 a."),
        (1e16, "10000000000000000 :- a."),
        (-2.5e-300, "-0." + "0" * 299 + "25 a."),
    ])
    def test_exponent_weights_print_positionally(self, weight, text):
        # repr would print 1e-05, 1e+16 and -2.5e-300; the grammar reads no
        # exponent, so the weight is written out digit by digit
        a = Atom("a", ())
        head, body = ((), (Literal(a, 0),)) if ":-" in text else ((a,), ())
        prog = Program((Rule(1, Weight(weight), head, body),))
        assert pretty_program(prog) == text + "\n"
        assert parse_program(pretty_program(prog)) == prog

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(programs())
    def test_property_round_trip(self, prog):
        # every shape format_rule prints: choice, disjunction, constraints,
        # "not" and "not not", inequalities, negative and non-integer weights
        assert parse_program(pretty_program(prog)) == prog
