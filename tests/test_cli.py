import functools
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lpmln
from lpmln import asp_backend, cli, engine, fixture_path, grounder, inference
from lpmln.cli import run
from lpmln.model import atom_sort_key


def invoke(*argv, env=None):
    out, err = io.StringIO(), io.StringIO()
    old = {}
    if env:
        for k, v in env.items():
            old[k] = os.environ.get(k)
            os.environ[k] = v
    try:
        code = run(list(argv), stdout=out, stderr=err)
    finally:
        for k, v in old.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, out.getvalue(), err.getvalue()


BIRD = str(fixture_path("bird.lpmln"))
BIRD_HARD = str(fixture_path("bird.lp"))
EVID = str(fixture_path("bird_evid.db"))
GOLDEN = Path(__file__).resolve().parent / "golden"


class TestMapMode:
    def test_default_is_map(self):
        code, out, err = invoke("-i", BIRD)
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "OPTIMUM FOUND"
        assert "Optimization: 1000" in lines
        assert any("unsat(5,\"1.000000\")" in l and "residentbird(jo)" in l for l in lines)

    def test_map_flag_overrides_query(self):
        code, out, _ = invoke("-i", BIRD, "-map", "-q", "residentbird")
        assert code == 0
        assert out.splitlines()[-1] == "OPTIMUM FOUND"

    def test_scale_flag_rescales_optimization(self):
        code, out, _ = invoke("-i", BIRD, "--scale", "100")
        assert code == 0
        assert "Optimization: 100" in out.splitlines()

    def test_output_file_for_inference(self, tmp_path):
        target = tmp_path / "result.txt"
        code, out, _ = invoke("-i", BIRD, "-q", "residentbird", "-r", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == "residentbird(jo) 0.665240955775\n"

    def test_output_file_in_missing_directory(self, tmp_path):
        target = tmp_path / "missing" / "result.txt"
        code, out, err = invoke("-i", BIRD, "-r", str(target))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(target) in err


class TestAllMode:
    def test_three_answers_with_probabilities(self):
        code, out, _ = invoke("-i", BIRD, "-all")
        assert code == 0
        assert out.count("Answer: ") == 3
        assert "Probability of Answer 1 : " in out
        for digits in ("0.665240955775", "0.0900305731704", "0.244728471055"):
            assert digits in out
        for opt in ("Optimization: 1000", "Optimization: 2000", "Optimization: 3000"):
            assert opt in out

    def test_byte_identical_reruns(self):
        a = invoke("-i", BIRD, "-all")
        b = invoke("-i", BIRD, "-all")
        assert a == b

    def test_marker_atoms_that_occur_in_the_program(self, tmp_path):
        # unsat(1,..) is derived, so the model holds it and it is printed
        # once; unsat(3,..) occurs only in a body and is printed as a marker
        src = tmp_path / "markers.lpmln"
        src.write_text('0.5 a.\nunsat(1,"0.500000") :- not a.\n2 b :- a.\n'
                       'c :- unsat(3,"2.000000").\n')
        code, out, _ = invoke("-i", str(src), "-all")
        assert code == 0
        assert out == ('Answer: 1\nunsat(1,"0.500000")\nOptimization: 500\n'
                       'Answer: 2\na unsat(3,"2.000000")\nOptimization: 2000\n'
                       'Answer: 3\na b\nOptimization: 0\n\n'
                       'Probability of Answer 1 : 0.348207427884\n'
                       'Probability of Answer 2 : 0.0776955791486\n'
                       'Probability of Answer 3 : 0.574096992968\n')

    @pytest.mark.parametrize("text", [
        fixture_path("bird.lpmln").read_text(),
        fixture_path("smoke.lpmln").read_text(),
        fixture_path("pcm_firing_squad.lpmln").read_text(),
        # up to eleven markers per model, whose numbers do not sort as text
        "".join(f"1.5 a({k}) :- not b.\n" for k in range(10)) + "0.5 b.\n",
        # 88 atoms; 84 facts, then 21 soft constraints that every model
        # violates, so up to 23 markers a model print as 100..105, 106, 108
        # | 85..99 across the first byte of the marker bits; unsat(106,..)
        # is derived when a is false (an atom past the first byte that the
        # model holds), and unsat(108,..) occurs only in a body
        "".join(f"d({k}).\n" for k in range(1, 85))
        + "".join(f"2 :- d({k}).\n" for k in range(1, 22))
        + '0.5 a.\nunsat(106,"0.500000") :- not a.\n0.5 e.\ng :- unsat(108,"0.500000").\n',
    ], ids=["bird", "smoke", "firing-squad", "many-markers", "multi-byte"])
    def test_lines_match_sorted_atoms_and_markers(self, tmp_path, text):
        # the listings print in bit order; each model's sorted atoms, then
        # its sorted witness markers, must give the same lines, for every
        # model under -all and for the tied models under -map
        program = lpmln.parse_program(text)
        gp = lpmln.ground(program)

        def reference(m):
            extra = asp_backend.phi_extend(program, m, "penalty") - m
            return " ".join(str(a) for a in sorted(m, key=atom_sort_key)
                            + sorted(extra, key=atom_sort_key))

        src = tmp_path / "program.lpmln"
        src.write_text(text)
        models = [e.interpretation for e in inference.distribution(gp).entries]
        code, out, _ = invoke("-i", str(src), "-all")
        assert code == 0
        assert out.splitlines()[1:3 * len(models):3] == [reference(m) for m in models]
        tied = inference.map_estimate(gp).models
        code, out, _ = invoke("-i", str(src), "-map")
        assert code == 0
        assert out.splitlines()[0:2 * len(tied):2] == [reference(m) for m in tied]

    def test_a_marker_of_two_rules_prints_once(self):
        # markers are deduplicated by marker, not by rule: two ground rules
        # with one origin and one substitution share their marker
        rule = grounder.GroundRule(1, lpmln.soft(1.0), (lpmln.Atom("a"),), ())
        gp = grounder.GroundProgram((rule, rule))
        show = cli._model_printer(gp, engine._Compiled(gp), 1000, [0b11])
        assert show(0, 0b11, 2.0) == ['unsat(1,"1.000000")', "Optimization: 2000"]


class TestQueryModes:
    def test_marginal(self):
        code, out, _ = invoke("-i", BIRD, "-q", "residentbird")
        assert code == 0
        assert out == "residentbird(jo) 0.665240955775\n"

    def test_conditional(self):
        code, out, _ = invoke("-i", BIRD, "-q", "residentbird", "-e", EVID)
        assert code == 0
        assert out == "residentbird(jo) 0.73105857863\n"

    def test_fire_alarm_conditional(self):
        code, out, _ = invoke("-i", str(fixture_path("fire_bayes.lpmln")),
                              "-e", str(fixture_path("fire_evid_diagnostic.db")),
                              "-q", "fire")
        assert code == 0
        assert out == "fire 0.352151116689\n"

    def test_relaxed_marginal(self):
        code, out, _ = invoke("-i", BIRD_HARD, "-hr", "-q", "residentbird")
        assert code == 0
        assert out == "residentbird(jo) 0.666666666667\n"

    def test_smoke_marginals(self):
        code, out, _ = invoke("-i", str(fixture_path("smoke.lpmln")), "-q", "smoke")
        assert code == 0
        assert out.splitlines() == [
            "smoke(alice) 1",
            "smoke(bob) 0.788058442383",
            "smoke(carol) 0.576116884766",
        ]

    def test_unknown_predicate_warns_exit_zero(self):
        code, out, err = invoke("-i", BIRD, "-q", "nosuch")
        assert code == 0
        assert out == ""
        assert "warning" in err

    def test_clingo_passthrough_ignored(self):
        code, _, err = invoke("-i", BIRD, "-q", "residentbird", "-clingo", "--opt-mode=enum")
        assert code == 0
        assert "ignored" in err

    @pytest.mark.parametrize("program, evidence, expected", [
        # q(b) heads an instance that cannot fire: still printed, at 0
        ("1 p(a).\nq(X) :- p(X).\nq(b) :- r.\n", None,
         (0, "q(a) 0.73105857863\nq(b) 0\n", "")),
        # no instance of q can be built: q does not occur
        ("p(a).\nq(X) :- p(X), X != a.\n", None,
         (0, "", "warning: query predicate 'q' does not occur in the program\n")),
        # the evidence adds c to the universe: q(c) occurs, at 0
        ("1 p(a).\nq(X) :- p(X).\n", "r(c).\n", (0, "q(a) 0.73105857863\nq(c) 0\n", "")),
    ])
    def test_query_atoms_of_instances_that_cannot_fire(self, tmp_path, program, evidence,
                                                        expected):
        (tmp_path / "p.lpmln").write_text(program)
        argv = ["-i", str(tmp_path / "p.lpmln"), "-q", "q"]
        if evidence is not None:
            (tmp_path / "e.db").write_text(evidence)
            argv += ["-e", str(tmp_path / "e.db")]
        assert invoke(*argv) == expected

    def test_model_order_with_an_atom_derived_only_under_not_not(self, tmp_path):
        # a is derived only by rule 1, whose not not b cannot hold, so rule 2
        # cannot fire; q stays a free atom and {p} comes before {q}
        (tmp_path / "p.lpmln").write_text("a :- not not b.\n1 q :- a.\nq :- not p.\n{p}.\n:- b.\n")
        code, out, _ = invoke("-i", str(tmp_path / "p.lpmln"), "-all")
        assert code == 0
        assert out == ("Answer: 1\np\nOptimization: 0\nAnswer: 2\nq\nOptimization: 0\n\n"
                       "Probability of Answer 1 : 0.5\nProbability of Answer 2 : 0.5\n")


class TestHardRelax:
    def test_strict_all_hard_is_unsat(self):
        code, out, err = invoke("-i", BIRD_HARD)
        assert code == 3
        assert "no probabilistic stable models" in err

    def test_relaxed_lists_three_models(self):
        code, out, _ = invoke("-i", BIRD_HARD, "-hr", "-all")
        assert code == 0
        # the full distribution is listed; exactly three models carry mass
        probs = [l.rsplit(" ", 1)[1] for l in out.splitlines()
                 if l.startswith("Probability of Answer")]
        assert sum(1 for p in probs if float(p) > 0) == 3
        assert any(l.startswith("bird(jo) residentbird(jo)") for l in out.splitlines())


class TestEmitModes:
    def test_emit_penalty_matches_golden(self, tmp_path):
        target = tmp_path / "out.lp"
        code, out, _ = invoke("-i", BIRD, "--mode", "emit-asp-pnt", "-r", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == fixture_path("bird_pnt.golden.lp").read_text()

    def test_emit_reward_stdout(self):
        code, out, _ = invoke("-i", BIRD, "--mode", "emit-asp-rwd")
        assert code == 0
        assert ':~ sat(4,"2.000000"). [-2000@0,4]' in out
        assert out == (GOLDEN / "bird_rwd.golden.lp").read_text()

    @pytest.mark.parametrize("name", ["bird", "smoke"])
    def test_emit_reward_matches_golden(self, tmp_path, name):
        target = tmp_path / "out.lp"
        code, out, _ = invoke("-i", str(fixture_path(f"{name}.lpmln")),
                              "--mode", "emit-asp-rwd", "-r", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == (GOLDEN / f"{name}_rwd.golden.lp").read_text()

    def test_emit_reward_edge_golden(self):
        code, out, _ = invoke("-i", str(GOLDEN / "edge.lpmln"), "--mode", "emit-asp-rwd",
                              "--scale", "3")
        assert code == 0
        assert out == (GOLDEN / "edge_rwd.golden.lp").read_text()

    def test_emit_reward_builds_no_records(self, monkeypatch):
        # the text is rendered from the source rules' substitutions: no
        # translated Rule or WeakConstraint, no re-packaged ground program,
        # no ground rule or marker atom, and no call to ground
        def refuse(*args, **kwargs):
            raise AssertionError("emit-asp-rwd built a record")
        monkeypatch.setattr(asp_backend, "Rule", refuse)
        monkeypatch.setattr(asp_backend, "WeakConstraint", refuse)
        monkeypatch.setattr(asp_backend, "_marker", refuse)
        monkeypatch.setattr(grounder, "GroundRule", refuse)
        monkeypatch.setattr(grounder, "ground_to_program", refuse)
        monkeypatch.setattr(cli, "ground", refuse)
        monkeypatch.setattr(cli, "ground_to_program", refuse, raising=False)
        for path, scale, golden in ((BIRD, "1000", "bird_rwd.golden.lp"),
                                    (str(GOLDEN / "edge.lpmln"), "3", "edge_rwd.golden.lp")):
            code, out, err = invoke("-i", path, "--mode", "emit-asp-rwd", "--scale", scale)
            assert (code, err) == (0, "")
            assert out == (GOLDEN / golden).read_text()

    def test_emit_mln_matches_golden(self, tmp_path):
        target = tmp_path / "out.mln"
        code, _, _ = invoke("-i", BIRD, "--mode", "emit-mln", "-r", str(target))
        assert code == 0
        assert target.read_text() == fixture_path("bird_completed.golden.mln").read_text()

    def test_emit_mln_writes_aux_sidecar(self, tmp_path):
        prog = tmp_path / "conj.lpmln"
        prog.write_text("1 p :- a, b.\n{a}. {b}.\n")
        target = tmp_path / "out.mln"
        code, _, _ = invoke("-i", str(prog), "--mode", "emit-mln", "-r", str(target))
        assert code == 0
        sidecar = tmp_path / "out.mln.aux"
        assert sidecar.exists()
        assert "Aux_1 <=> A ^ B" in sidecar.read_text()
        assert "// Aux_1 <=> A ^ B" in target.read_text()

    def test_emit_mln_aux_atoms_avoid_the_programs_names(self, tmp_path):
        prog = tmp_path / "clash.lpmln"
        prog.write_text("{aux_1}. {a}. {c}. d :- a, c. d :- aux_1. 2 aux_1.\n")
        code, out, _ = invoke("-i", str(prog), "--mode", "emit-mln")
        assert code == 0
        lines = out.splitlines()
        assert lines.count("Aux_1") == 1 and lines.count("Aux_2") == 1
        assert "D => Aux_2 v Aux_1." in lines and "Aux_1 v Aux_1" not in out
        assert "Aux_2 <=> A ^ C." in lines and "// Aux_2 <=> A ^ C" in lines


class TestExitCodes:
    def test_syntax_error(self, tmp_path):
        bad = tmp_path / "bad.lpmln"
        bad.write_text("p(.\n")
        code, _, err = invoke("-i", str(bad))
        assert code == 1
        assert "error" in err

    def test_numeral_glued_to_a_name(self, tmp_path):
        bad = tmp_path / "exponent.lpmln"
        bad.write_text("1e16 :- a.\n")
        code, out, err = invoke("-i", str(bad))
        assert (code, out) == (1, "")
        assert err == "error: 1:2: a numeral must be followed by a space or punctuation, " \
                      "found 'e'\n"

    def test_non_ascii_digit(self, tmp_path):
        bad = tmp_path / "superscript.lpmln"
        bad.write_text("² a.\n", encoding="utf-8")
        code, out, err = invoke("-i", str(bad))
        assert (code, out, err) == (1, "", "error: 1:1: unexpected character '²'\n")

    @pytest.mark.parametrize("text, message", [
        (fixture_path("smoke.lpmln").read_text(),
         "completion is only defined for tight programs"),
        ("a ; b.\n", "rule 1 has a disjunctive head"),
    ])
    def test_emit_mln_rejects_what_completion_cannot_take(self, tmp_path, text, message):
        prog = tmp_path / "prog.lpmln"
        prog.write_text(text)
        code, out, err = invoke("-i", str(prog), "--mode", "emit-mln")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("spec", ["", ","])
    def test_empty_query_spec(self, spec):
        code, out, err = invoke("-i", BIRD, "-q", spec)
        assert (code, out) == (1, "")
        assert err == "error: 1:1: empty predicate name\n"

    def test_cap_exceeded(self):
        code, _, err = invoke("-i", BIRD, env={"LPMLN_ATOM_CAP": "1"})
        assert code == 2
        assert "cap" in err

    def test_cap_error_names_the_free_atoms(self):
        code, _, err = invoke("-i", str(fixture_path("clique10.lpmln")), "-hr",
                              env={"LPMLN_ATOM_CAP": "24"})
        assert code == 2
        assert err.count("\n") == 1
        assert "enumeration needs 172 free atoms but the cap is 24" in err
        assert "; free: disconnected(n0,n0) (relaxed hard), " in err
        assert err.count(" (relaxed hard)") == 8
        assert err.endswith(" and 164 more\n")

    def test_underivable_soft_heads_stay_under_the_cap(self, tmp_path):
        # nothing derives r, so no p(ci) can hold: none of the six soft
        # heads is free, and a cap of 4 gives what a cap of 6 gave before
        prog = tmp_path / "underivable.lpmln"
        prog.write_text("1 p(X) :- q(X), r(X).\n"
                        + "".join(f"q(c{k}).\n" for k in range(1, 7)))
        code, out, err = invoke("-i", str(prog), env={"LPMLN_ATOM_CAP": "4"})
        assert (code, err) == (0, "")
        assert out == "q(c1) q(c2) q(c3) q(c4) q(c5) q(c6)\nOptimization: 0\nOPTIMUM FOUND\n"

    def test_inconsistent_evidence(self, tmp_path):
        ev = tmp_path / "evid.db"
        ev.write_text(":- bird(jo).\n:- not bird(jo).\n")
        code, _, err = invoke("-i", BIRD, "-e", str(ev), "-q", "residentbird")
        assert code == 3
        assert "inconsistent" in err

    @pytest.mark.parametrize("program, message", [
        ("a.\n", "evidence is inconsistent with the program"),
        ("a.\n:- a.\n", "no probabilistic stable models"),  # not the evidence's fault
    ])
    @pytest.mark.parametrize("flags", [(), ("-q", "a"), ("-all",)])
    def test_evidence_is_blamed_only_when_the_program_has_models(self, tmp_path, program,
                                                                 message, flags):
        (tmp_path / "p.lpmln").write_text(program)
        (tmp_path / "e.db").write_text(":- a.\n:- b.\n")
        code, out, err = invoke("-i", str(tmp_path / "p.lpmln"), "-e", str(tmp_path / "e.db"),
                                *flags)
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_missing_input_flag(self):
        code, _, _ = invoke()
        assert code == 1

    # exit code and stderr of each input error, recorded before cli.run's
    # handlers were merged into one per exit code
    @pytest.mark.parametrize("argv, message", [
        (["-i", "{tmp}/missing.lpmln"],
         "[Errno 2] No such file or directory: '{tmp}/missing.lpmln'"),
        (["-i", BIRD, "-e", "{tmp}/missing.db"],
         "[Errno 2] No such file or directory: '{tmp}/missing.db'"),
        (["-i", "{tmp}"], "[Errno 21] Is a directory: '{tmp}'"),
        (["-i", "{tmp}/latin.lpmln"],
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (["-i", BIRD, "-e", "{tmp}/latin.lpmln"],
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (["-i", "{tmp}/empty.lpmln"], "rule 1 has variables but the universe is empty"),
    ])
    def test_input_errors(self, tmp_path, argv, message):
        (tmp_path / "latin.lpmln").write_bytes(b"\xff\xfe a.\n")
        (tmp_path / "empty.lpmln").write_text("p(X) :- q(X).\n")
        code, out, err = invoke(*(a.format(tmp=tmp_path) for a in argv))
        assert (code, out, err) == (1, "", f"error: {message.format(tmp=tmp_path)}\n")

    def test_grounding_cap(self, monkeypatch):
        # a GroundingCapError is a ValueError, and still exits 2; inference
        # grounds through _ground_live
        def capped(program, query=()):
            raise grounder.GroundingCapError(5)
        monkeypatch.setattr(cli, "_ground_live", capped)
        code, out, err = invoke("-i", BIRD)
        assert (code, out, err) == (2, "", "error: grounding exceeds the cap of 5 rules\n")

    # 260 ground instances, 11 of which can fire
    PATH = ("".join(f"node(n{i}).\n" for i in range(6)) + "edge(n0, n1).\n1 edge(n1, n2).\n"
            "path(X, Y) :- edge(X, Y).\npath(X, Y) :- path(X, Z), path(Z, Y).\n")

    def test_grounding_cap_counts_only_instances_that_can_fire(self, monkeypatch, tmp_path):
        # inference fits under a cap of 100 and prints what it prints
        # uncapped; the reward translation grounds every instance and is
        # refused
        src = tmp_path / "path.lpmln"
        src.write_text(self.PATH)
        uncapped = invoke("-i", str(src), "-q", "path")
        assert uncapped[0] == 0 and "path(n0,n2) 0.73105857863\n" in uncapped[1]
        reward_text = asp_backend._reward_text
        for cap, code in ((100, 0), (10, 2)):
            monkeypatch.setattr(cli, "_ground_live", functools.partial(grounder._ground_live, cap=cap))
            monkeypatch.setattr(asp_backend, "_reward_text",
                                functools.partial(reward_text, cap=cap))
            refused = (2, "", f"error: grounding exceeds the cap of {cap} rules\n")
            assert invoke("-i", str(src), "-q", "path") == (uncapped if code == 0 else refused)
            assert invoke("-i", str(src), "--mode", "emit-asp-rwd") == refused

    def test_evidence_is_blamed_on_the_instances_that_can_fire(self, monkeypatch, tmp_path):
        # the evidence leaves no stable model; the program alone has one, and
        # finding it grounds only its 11 instances that can fire, under the
        # cap that every grounding here is held to
        src, evid = tmp_path / "path.lpmln", tmp_path / "evid.db"
        src.write_text(self.PATH)
        evid.write_text(":- edge(n0, n1).\n")
        for module in (cli, inference):
            monkeypatch.setattr(module, "_ground_live",
                                functools.partial(grounder._ground_live, cap=100))
        monkeypatch.setattr(inference, "ground", functools.partial(grounder.ground, cap=100))
        assert invoke("-i", str(src), "-e", str(evid), "-q", "path") == \
            (3, "", "error: evidence is inconsistent with the program\n")

    def test_unsafe_program(self, tmp_path):
        bad = tmp_path / "unsafe.lpmln"
        bad.write_text("p(a).\nq(X) :- not p(X).\n")
        code, _, err = invoke("-i", str(bad))
        assert code == 1
        assert "unsafe" in err


class TestInputContract:
    def test_python_dash_m_runs_the_cli(self):
        env = dict(os.environ, PYTHONPATH=str(Path(lpmln.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "lpmln.cli", "-i", BIRD, "-q", "residentbird"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout == "residentbird(jo) 0.665240955775\n"

    def test_python_dash_m_package_runs_the_cli(self):
        env = dict(os.environ, PYTHONPATH=str(Path(lpmln.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "lpmln", "-i", BIRD, "-q", "residentbird"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout == "residentbird(jo) 0.665240955775\n"
        proc = subprocess.run([sys.executable, "-m", "lpmln"], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 1 and proc.stdout == ""
        assert "-i" in proc.stderr

    def test_non_integer_atom_cap(self):
        code, out, err = invoke("-i", BIRD, env={"LPMLN_ATOM_CAP": "abc"})
        assert code == 1 and out == ""
        assert err == "error: LPMLN_ATOM_CAP must be an integer, got 'abc'\n"

    # numerals on the command line are ASCII decimals, as in programs
    @pytest.mark.parametrize("raw", ["3_0", "\uff13", "\u0663", " 3 ", "+3",
                                     pytest.param("9" * 5000, id="past-int-digit-limit")])
    def test_atom_cap_is_an_ascii_decimal(self, raw):
        code, out, err = invoke("-i", BIRD, env={"LPMLN_ATOM_CAP": raw})
        assert (code, out) == (1, "")
        assert err == f"error: LPMLN_ATOM_CAP must be an integer, got {raw!r}\n"

    @pytest.mark.parametrize("raw", ["3_0", "\uff13", "\u0663", " 3 ", "+3",
                                     pytest.param("9" * 5000, id="past-int-digit-limit")])
    def test_scale_is_an_ascii_decimal(self, raw, capsys):
        code, out, err = invoke("-i", BIRD, "--scale", raw)
        assert (code, out) == (1, "")
        assert err == f"error: argument --scale: invalid int value: {raw!r}\n"
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("argv, message", [
        ((), "the following arguments are required: -i"),
        (("-i",), "argument -i: expected one argument"),
        (("-i", BIRD, "--bogus"), "unrecognized arguments: --bogus"),
        # argparse words an invalid choice differently across versions
        (("-i", BIRD, "--mode", "nope"), None),
    ])
    def test_usage_error_is_one_line_on_the_given_stream(self, argv, message, capsys):
        code, out, err = invoke(*argv)
        assert (code, out) == (1, "")
        if message is None:
            assert err.startswith("error: argument --mode: ") and err.count("\n") == 1
            assert err.endswith("\n")
        else:
            assert err == f"error: {message}\n"
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("argv", [("-h",), ("--help",), ("-i", BIRD, "-h", "--bogus")])
    def test_help_goes_to_the_given_stdout(self, argv, capsys):
        code, out, err = invoke(*argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: lpmln [-h] -i FILE ")
        assert "--scale SCALE" in out
        assert capsys.readouterr() == ("", "")

    def test_help_twice_from_the_one_parser(self, monkeypatch):
        # the parser is built at import, once per process: run only parses,
        # and -h leaves no traceback behind to grow from run to run
        def build():
            raise AssertionError("run built a parser")
        monkeypatch.setattr(cli, "_build_parser", build)
        first, second = invoke("-h"), invoke("-h")
        assert first == second and first[0] == 0
        assert first[1] == cli._PARSER.format_help()
        help_action = next(a for a in cli._PARSER._actions if "-h" in a.option_strings)
        assert not isinstance(help_action, BaseException)

    @pytest.mark.parametrize("flags", [(), ("-q", "residentbird"),
                                       ("--mode", "emit-asp-rwd")])
    def test_negative_atom_cap(self, flags):
        code, out, err = invoke("-i", BIRD, *flags, env={"LPMLN_ATOM_CAP": "-1"})
        assert code == 1 and out == ""
        assert err == "error: LPMLN_ATOM_CAP must be a non-negative integer, got '-1'\n"

    def test_zero_atom_cap_is_valid(self):
        code, out, _ = invoke("-i", BIRD, "--mode", "emit-asp-rwd",
                              env={"LPMLN_ATOM_CAP": "0"})
        assert code == 0 and out == (GOLDEN / "bird_rwd.golden.lp").read_text()

    @pytest.mark.parametrize("scale", ["0", "-3"])
    @pytest.mark.parametrize("flags", [(), ("-all",), ("-q", "residentbird"),
                                       ("--mode", "emit-asp-pnt")])
    def test_scale_below_one(self, scale, flags):
        code, out, err = invoke("-i", BIRD, "--scale", scale, *flags)
        assert code == 1 and out == ""
        assert err == "error: scale must be a positive integer\n"

    # a scaled weight or penalty outside the float range is one error line,
    # not an OverflowError traceback
    @pytest.mark.parametrize("weight, scale, flags, message", [
        ("", 10 ** 400, (), f"0.0 at scale {10 ** 400}"),
        ("1" + "0" * 300, 10 ** 12, ("-all",), "1e+300 at scale 1000000000000"),
        ("1" + "0" * 300, 10 ** 12, ("--mode", "emit-asp-pnt"),
         "1e+300 at scale 1000000000000"),
        ("1" + "0" * 300, 10 ** 12, ("--mode", "emit-asp-rwd"),
         "1e+300 at scale 1000000000000"),
        ("-1" + "0" * 300, 10 ** 12, (), "-1e+300 at scale 1000000000000"),
    ], ids=["map-huge-scale", "all", "emit-asp-pnt", "emit-asp-rwd", "map-negative-weight"])
    def test_scaled_weight_out_of_range(self, tmp_path, weight, scale, flags, message):
        src = tmp_path / "p.lpmln"
        src.write_text(f"{weight} a.\n")
        code, out, err = invoke("-i", str(src), "--scale", str(scale), *flags)
        assert (code, out, err) == (1, "", f"error: {message} is out of range\n")

    # penalty mode: {} violates both facts, an exponent of -(-inf) = inf
    @pytest.mark.parametrize("flags", [("-q", "a,b"), ()], ids=["query", "map"])
    def test_infinite_soft_total(self, tmp_path, flags):
        src = tmp_path / "p.lpmln"
        src.write_text("".join(f"-1{'0' * 308} {a}.\n" for a in "ab"))
        code, out, err = invoke("-i", str(src), *flags)
        assert (code, out, err) == (1, "", "error: soft weights add up past the float range\n")

    def test_minus_infinite_exponent_has_probability_zero(self, tmp_path):
        # {} violates both facts, adds up to inf and weighs exp(-inf) = 0
        src = tmp_path / "p.lpmln"
        src.write_text("".join(f"1{'0' * 308} {a}.\n" for a in "ab"))
        code, out, err = invoke("-i", str(src), "-q", "a,b")
        assert (code, out, err) == (0, "a 1\nb 1\n", "")

    def test_hard_reward_weights_at_any_scale(self, tmp_path):
        # hard weak constraints weigh -scale, an exact integer
        src = tmp_path / "p.lpmln"
        src.write_text("a.\nb :- a.\n")
        code, out, err = invoke("-i", str(src), "--mode", "emit-asp-rwd",
                                "--scale", str(10 ** 400))
        assert code == 0 and err == ""
        assert f"[-{10 ** 400}@1,1]" in out


class TestGroundOnce:
    @pytest.mark.parametrize("flags", [(), ("-all",), ("-q", "residentbird")])
    def test_one_ground_call_per_run(self, monkeypatch, flags):
        # inference grounds through _ground_live, the translations through
        # ground; either counts as the one grounding of a run
        printed = "residentbird(jo) 0.665240955775\n" if "-q" in flags else 'unsat(5,"1.000000")'
        calls = []

        def counting(real):
            def call(*args, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)
            return call

        for module in (cli, asp_backend, inference):
            monkeypatch.setattr(module, "ground", counting(grounder.ground))
        monkeypatch.setattr(cli, "_ground_live", counting(grounder._ground_live))
        code, out, _ = invoke("-i", BIRD, *flags)
        assert code == 0 and printed in out
        assert calls == ["_ground_live"]

    @pytest.mark.parametrize("flags", [(), ("-all",)])
    def test_one_compiled_program_per_run(self, monkeypatch, flags):
        # the MAP and -all printers read the enumeration's compiled program
        # and violation masks; nothing compiles the ground program again
        built = []
        real = engine._Compiled.__init__

        def counting(self, rules):
            built.append(len(rules))
            real(self, rules)

        monkeypatch.setattr(engine._Compiled, "__init__", counting)
        code, out, _ = invoke("-i", BIRD, *flags)
        assert code == 0 and 'unsat(5,"1.000000")' in out
        assert len(built) == 1
