"""The equivalence corpus: every library result over a fixed, seeded set of
programs, one canonical line per case and lane width.

A change that claims the same results shows it here: ``test_corpus``
compares the SHA-256 of the dump with the value in ``golden/corpus.sha256``.
Atoms are printed in ``atom_sort_key`` order, never as a set's ``repr``, so
the dump does not depend on ``PYTHONHASHSEED``; floats are printed with
``repr``, which is the same on every supported CPython.

The cases are generated programs in both hard modes, random weighted-formula
programs, the completions of the generated tight programs and of the
fixtures with their Tseytin forms, the fixtures under their evidence
files, ``optimal_models`` of the fixtures' penalty and reward
translations, and the texts those translations and the Tseytin forms emit
for the generated tight programs and the fixtures.  Each runs at lane widths
(``engine._LANE_BITS``) 0, 1, 2 and 10, except where that would cost seconds
or cannot matter: see ``FIXTURES``, ``WEIGHED_RULES``, ``_mln_cases``,
``_emitted_cases`` and ``TRANSLATED``.  pcm_firing_squad's
translations are left out of ``TRANSLATED``: ``optimal_models`` takes 1.2 to
1.7 s per flavour on them at width 10, and minutes at width 2.

Record the value from trusted output only, at a commit whose results are
the reference::

    PYTHONPATH=src python tests/corpus.py
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

from lpmln import (emit_asp_text, emit_mln_text, engine, fixture_path, ground, ground_to_program,
                   optimal_models, parse_evidence, parse_program, translate_penalty,
                   translate_reward)
from lpmln.engine import DEFAULT_ATOM_CAP, StableModelEnumerator
from lpmln.inference import (distribution, map_estimate, marginal, weight_penalty,
                             weight_reward)
from lpmln.mln_backend import MlnProgram, complete, mln_distribution, tseytin
from lpmln.model import atom_sort_key, merge_programs

from helpers import integer_weight, random_program_text, random_text_with_facts, random_tight_text
from test_mln_backend import _random_mln

RECORDED = Path(__file__).parent / "golden" / "corpus.sha256"
LANE_BITS = (0, 1, 2, 10)
BOTH = ("strict", "relaxed")
FIRE_EVIDENCE = (None, "fire_evid_diagnostic.db", "fire_evid_explaining.db",
                 "fire_evid_intercausal.db", "fire_evid_mixed.db", "fire_evid_predictive.db")
# (program, evidence, hard modes, lane widths).  clique10 has 282 ground
# rules and fire_bayes 12 free atoms in strict mode: they run at the
# default width only.  fire_bayes has 18 in relaxed mode, 2 ** 18
# candidates: it does not run there.
FIXTURES = (("bird.lpmln", None, BOTH, LANE_BITS),
            ("bird.lpmln", "bird_evid.db", BOTH, LANE_BITS),
            ("smoke.lpmln", None, BOTH, LANE_BITS),
            ("smoke_mln.lpmln", None, BOTH, LANE_BITS),
            ("pcm_firing_squad.lpmln", None, BOTH, LANE_BITS),
            ("pcm_firing_squad.lpmln", "pcm_evid.db", BOTH, LANE_BITS),
            ("clique10.lpmln", None, BOTH, (10,)),
            *(("fire_bayes.lpmln", e, ("strict",), (10,)) for e in FIRE_EVIDENCE))
# (fixture, lane widths) whose translations optimal_models runs on.
# smoke_mln's penalty translation is refused as unsafe, clique10's and
# fire_bayes's translations at the cap, in well under 0.1 s: those two run
# at the default width only.
TRANSLATED = (("bird.lpmln", LANE_BITS), ("smoke.lpmln", LANE_BITS),
              ("smoke_mln.lpmln", LANE_BITS), ("clique10.lpmln", (10,)),
              ("fire_bayes.lpmln", (10,)))
# weight_* compiles the program per call: every model is weighed one at a
# time only up to this many ground rules and models; past either, a seeded
# sample of this many models is
WEIGHED_RULES, WEIGHED_MODELS, WEIGHED_SAMPLE = 100, 1024, 16


def _atoms(interp) -> str:
    return "{" + " ".join(map(str, sorted(interp, key=atom_sort_key))) + "}"


def _shown(fn, *args) -> str:
    """``fn(*args)``, or the error it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - an error is a result too
        return f"!{type(exc).__name__}: {exc}"


def _enumerated(gp, hard_mode: str) -> str:
    enum = StableModelEnumerator(gp, hard_mode)
    bits, violations = enum.models_bits(), enum.violations
    line = (f"models_bits={bits} violations={violations} rejected_hard={enum.rejected_hard}"
            f" rejected_minimality={enum.rejected_minimality}")
    models = enum.models()
    if len(gp.rules) > WEIGHED_RULES or len(bits) > WEIGHED_MODELS:
        picks = sorted(random.Random(WEIGHED_SAMPLE).sample(
            range(len(models)), min(WEIGHED_SAMPLE, len(models))))
        models = [models[k] for k in picks]
        line += f" picks={picks}"
    weights = []
    for interp in models:
        r, p = weight_reward(gp, interp), weight_penalty(gp, interp)
        weights.append(f"{r.hard},{r.soft!r},{p.hard},{p.soft!r}")
    return f"{line} weights=[{' '.join(weights)}]"


def _distribution(gp, mode: str, hard_mode: str) -> str:
    return " ".join(f"{_atoms(e.interpretation)}:{e.weight.hard},{e.weight.soft!r},"
                    f"{e.probability!r}" for e in distribution(gp, mode, hard_mode).entries)


def _map(gp, hard_mode: str) -> str:
    m = map_estimate(gp, hard_mode)
    return " ".join(f"{_atoms(i)}:{o}" for i, o in zip(m.models, m.optimizations))


def _marginal(gp, hard_mode: str) -> str:
    preds = sorted({a.predicate for a in gp.atoms})
    return " ".join(f"{a}:{p!r}" for a, p in marginal(gp, preds, "penalty", hard_mode).items())


def _translated(program, flavor: str):
    """The penalty translation of ``program``, hard rules translated too, or
    the reward translation of its ground form."""
    if flavor == "penalty":
        return translate_penalty(program, 1000, translate_hard=True)
    return translate_reward(ground_to_program(ground(program)), 1000)


def _optimal(program, flavor: str) -> str:
    return " ".join(map(_atoms, optimal_models(_translated(program, flavor))))


def _emitted(program, form: str) -> str:
    """The text of a translation, or of the Tseytin form of the completion."""
    if form == "mln":
        return emit_mln_text(tseytin(complete(ground(program))))
    return emit_asp_text(_translated(program, form))


def _emitted_cases(name: str, program):
    """The texts the translations emit, which a new grounder must keep, at
    the default width only: they do not depend on it."""
    for form in "penalty", "reward", "mln":
        yield (f"{name}.emit_{form}", (10,),
               lambda form=form: _shown(_emitted, program, form))


def _program_line(gp, hard_mode: str) -> str:
    """Every engine and inference result for one ground program."""
    return " | ".join([_shown(_enumerated, gp, hard_mode),
                       "reward=" + _shown(_distribution, gp, "reward", hard_mode),
                       "penalty=" + _shown(_distribution, gp, "penalty", hard_mode),
                       "map=" + _shown(_map, gp, hard_mode),
                       "marginal=" + _shown(_marginal, gp, hard_mode)])


def _mln_line(mln: MlnProgram) -> str:
    return " ".join(f"{_atoms(w)}:{p!r}" for w, p in mln_distribution(mln).entries)


def _program_cases(name: str, gp, hard_modes, widths):
    for hard_mode in hard_modes:
        yield (f"{name}.{hard_mode}", widths,
               lambda hard_mode=hard_mode: _program_line(gp, hard_mode))


def _mln_cases(name: str, gp):
    """The completion of ``gp`` and its Tseytin form.  A form of up to 12
    atoms runs at every width, one of up to 18 at the default width (at
    width 0 it is 2 ** 18 one-world slices); one past the cap is refused
    cheaply, and one in between (24 atoms on pcm_firing_squad) is left out."""
    mln = _shown(complete, gp)
    if isinstance(mln, str):
        yield f"{name}.complete", LANE_BITS, lambda: mln
        return
    for form, program in ("complete", mln), ("tseytin", tseytin(mln)):
        n = len(program.atoms)
        if n <= 18 or n > DEFAULT_ATOM_CAP:
            yield (f"{name}.{form}", LANE_BITS if n <= 12 else (10,),
                   lambda program=program: _shown(_mln_line, program))


def cases():
    """``(name, lane widths, canonical line thunk)`` for every case."""
    rng = random.Random(2021)
    for k in range(60):
        text = random_text_with_facts(rng, rng.randint(2, 6), rng.randint(1, 7),
                                      rng.randint(0, 2))
        yield from _program_cases(f"facts{k}", ground(parse_program(text)), BOTH, LANE_BITS)
    for k in range(40):
        text = random_program_text(rng, rng.randint(1, 5), rng.randint(1, 8),
                                   allow_disjunction=True, weight=integer_weight)
        yield from _program_cases(f"whole{k}", ground(parse_program(text)), BOTH, LANE_BITS)
    for k in range(40):
        program = parse_program(random_tight_text(rng, rng.randint(2, 6), rng.randint(1, 6)))
        gp = ground(program)
        yield from _program_cases(f"tight{k}", gp, BOTH, LANE_BITS)
        yield from _mln_cases(f"tight{k}", gp)
        yield from _emitted_cases(f"tight{k}", program)
    for scale in (1000, 1):  # whole-number weights are weighed by class
        for k in range(80):
            mln = _random_mln(rng, scale)
            yield f"mln{scale}.{k}", LANE_BITS, lambda mln=mln: _shown(_mln_line, mln)
    for name, evidence, hard_modes, widths in FIXTURES:
        program = parse_program(fixture_path(name).read_text())
        if evidence:
            program = merge_programs(program, parse_evidence(fixture_path(evidence).read_text()))
        gp = ground(program)
        label = name if evidence is None else f"{name}+{evidence}"
        yield from _program_cases(label, gp, hard_modes, widths)
        yield from _mln_cases(label, gp)
        yield from _emitted_cases(label, program)
    for name, widths in TRANSLATED:
        program = parse_program(fixture_path(name).read_text())
        for flavor in "penalty", "reward":
            yield (f"{name}.optimal_{flavor}", widths,
                   lambda program=program, flavor=flavor: _shown(_optimal, program, flavor))


def lines():
    """The dump: one line per case and lane width."""
    saved = engine._LANE_BITS
    try:
        for name, widths, line in cases():
            for bits in widths:
                engine._LANE_BITS = bits
                yield f"{name} @{bits} {line()}\n"
    finally:
        engine._LANE_BITS = saved


def digest() -> str:
    h = hashlib.sha256()
    for line in lines():
        h.update(line.encode("utf-8"))
    return h.hexdigest()


if __name__ == "__main__":
    RECORDED.write_text(digest() + "\n", encoding="utf-8")
    print(RECORDED.read_text(encoding="utf-8"), end="")
