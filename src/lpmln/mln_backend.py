"""Tightness check, ground Clark completion, auxiliary-atom rewriting, an
exact evaluator for weighted-formula programs, and text emission.

The completion path turns a tight, non-disjunctive ground program into a
set of weighted propositional formulas whose log-linear distribution
matches the program's own.  The evaluator enumerates worlds exactly:
worlds violating a hard formula carry no mass (falling back to the
maximal count of satisfied hard formulas when nothing satisfies them
all), and the rest weigh in at the exponentiated sum of their satisfied
soft weights.  ``_lanes`` evaluates each formula once per slice of worlds,
and ``engine._worlds`` decides which worlds to keep; ``inference._weighed``
weighs them as it weighs stable models, and a soft total past the float
range is a ValueError.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import count
from operator import and_, or_

from .engine import (DEFAULT_ATOM_CAP, EnumerationCapError, _bit_indices, _Compiled,
                     _tarjan_scc, _worlds)
from .grounder import GroundProgram
from .inference import _normalise, _total, _weighed
from .model import HARD, Atom, Interpretation, Weight, _choice_marker, atom_sort_key


class NotTightError(ValueError):
    pass


class DisjunctiveProgramError(ValueError):
    pass


# --- propositional formulas ----------------------------------------------

class Formula:
    pass


@dataclass(frozen=True)
class FAtom(Formula):
    atom: Atom


@dataclass(frozen=True)
class FNot(Formula):
    sub: Formula


@dataclass(frozen=True)
class FAnd(Formula):
    subs: tuple[Formula, ...]


@dataclass(frozen=True)
class FOr(Formula):
    subs: tuple[Formula, ...]


@dataclass(frozen=True)
class FImpl(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class FIff(Formula):
    lhs: Formula
    rhs: Formula


TRUE = FAnd(())
FALSE = FOr(())


def conj(subs) -> Formula:
    subs = tuple(subs)
    if not subs:
        return TRUE
    if len(subs) == 1:
        return subs[0]
    return FAnd(subs)


def disj(subs) -> Formula:
    subs = tuple(subs)
    if not subs:
        return FALSE
    if len(subs) == 1:
        return subs[0]
    return FOr(subs)


def evaluate(f: Formula, interp: Interpretation) -> bool:
    """Whether ``f`` holds in ``interp``: ``_lanes`` with it as the only lane."""
    return _lanes(f, dict.fromkeys(interp, 1), 1) == 1


def _lanes(f: Formula, val: dict[Atom, int], full: int) -> int:
    """The lanes of ``full`` where ``f`` holds; ``val[a]``: atom a's true lanes, if any."""
    if isinstance(f, FAtom):
        return val.get(f.atom, 0)
    if isinstance(f, FNot):
        return full ^ _lanes(f.sub, val, full)
    if isinstance(f, FAnd):
        return reduce(and_, [_lanes(s, val, full) for s in f.subs], full)
    if isinstance(f, FOr):
        return reduce(or_, [_lanes(s, val, full) for s in f.subs], 0)
    if isinstance(f, FImpl):
        return full & ~_lanes(f.lhs, val, full) | _lanes(f.rhs, val, full)
    if isinstance(f, FIff):
        return full ^ _lanes(f.lhs, val, full) ^ _lanes(f.rhs, val, full)
    raise TypeError(f"not a formula: {f!r}")


def formula_atoms(f: Formula) -> set[Atom]:
    if isinstance(f, FAtom):
        return {f.atom}
    if isinstance(f, FNot):
        return formula_atoms(f.sub)
    if isinstance(f, (FAnd, FOr)):
        out: set[Atom] = set()
        for s in f.subs:
            out |= formula_atoms(s)
        return out
    if isinstance(f, (FImpl, FIff)):
        return formula_atoms(f.lhs) | formula_atoms(f.rhs)
    raise TypeError(f"not a formula: {f!r}")


def _replace(f: Formula, target: Formula, repl: Formula) -> Formula:
    if f == target:
        return repl
    if isinstance(f, FNot):
        return FNot(_replace(f.sub, target, repl))
    if isinstance(f, FAnd):
        return FAnd(tuple(_replace(s, target, repl) for s in f.subs))
    if isinstance(f, FOr):
        return FOr(tuple(_replace(s, target, repl) for s in f.subs))
    if isinstance(f, FImpl):
        return FImpl(_replace(f.lhs, target, repl), _replace(f.rhs, target, repl))
    if isinstance(f, FIff):
        return FIff(_replace(f.lhs, target, repl), _replace(f.rhs, target, repl))
    return f


# --- weighted formula programs --------------------------------------------

@dataclass(frozen=True)
class MlnFormula:
    weight: Weight
    formula: Formula


@dataclass(frozen=True)
class MlnProgram:
    formulas: tuple[MlnFormula, ...]
    aux_defs: tuple[tuple[Atom, Formula], ...] = ()
    # atoms the worlds range over even when no formula mentions them
    # (e.g. a choice-rule atom whose completion is a tautology)
    signature: tuple[Atom, ...] = ()

    @cached_property
    def aux_atoms(self) -> frozenset:
        return frozenset(a for a, _ in self.aux_defs)

    @cached_property
    def atoms(self) -> tuple[Atom, ...]:
        out: set[Atom] = set(self.signature)
        for mf in self.formulas:
            out |= formula_atoms(mf.formula)
        return tuple(sorted(out, key=atom_sort_key))


# --- tightness and completion ----------------------------------------------

def is_tight(gp: GroundProgram) -> bool:
    """True iff the positive dependency graph (head -> positive body atom)
    is acyclic: no rule has its head in its positive body and every
    strongly connected component is a single atom."""
    for r in gp.rules:
        if len(r.head) > 1:
            raise DisjunctiveProgramError(
                f"rule {r.origin_index} has a disjunctive head")
    comp = _Compiled(gp)
    succ: list[list[int]] = [[] for _ in comp.atoms]
    for r in comp.rules:
        if r.head & r.pos:
            return False
        if r.head:
            succ[r.head.bit_length() - 1] += _bit_indices(r.pos)
    return len(set(_tarjan_scc(len(succ), succ))) == len(succ)


def _body_formula(body) -> Formula:
    parts = []
    for lit in body:
        if lit.negation == 1:
            parts.append(FNot(FAtom(lit.atom)))
        else:
            parts.append(FAtom(lit.atom))  # double negation is classical identity
    return conj(parts)


def complete(gp: GroundProgram) -> MlnProgram:
    """Ground Clark completion of a tight non-disjunctive program.

    Each weighted rule w: H :- B contributes the formula w: B -> H, and for
    every atom p a hard formula p -> (disjunction of the bodies of rules
    with head p) is added; an empty disjunction yields hard !p.  A
    choice-shaped rule contributes its body as a completion disjunct and no
    rule formula (its implication is a tautology).
    """
    if not is_tight(gp):
        raise NotTightError("completion is only defined for tight programs")

    formulas: list[MlnFormula] = []
    disjuncts: dict[Atom, list[Formula]] = {a: [] for a in gp.atoms}
    for r in gp.rules:
        marker = _choice_marker(r)
        if marker is not None:
            body = r.body[:marker] + r.body[marker + 1:]
            disjuncts[r.head[0]].append(_body_formula(body))
            continue
        body_f = _body_formula(r.body)
        if not r.head:
            formulas.append(MlnFormula(r.weight, FNot(body_f)))
            continue
        head_f = FAtom(r.head[0])
        rule_f = head_f if body_f == TRUE else FImpl(body_f, head_f)
        formulas.append(MlnFormula(r.weight, rule_f))
        disjuncts[r.head[0]].append(body_f)

    for a in gp.atoms:
        ds = disjuncts[a]
        if any(d == TRUE for d in ds):
            continue  # completion is a tautology
        if not ds:
            formulas.append(MlnFormula(HARD, FNot(FAtom(a))))
        else:
            formulas.append(MlnFormula(HARD, FImpl(FAtom(a), disj(ds))))
    return MlnProgram(tuple(formulas), signature=gp.atoms)


# --- auxiliary-atom rewriting ----------------------------------------------

def _fresh_aux(mln: MlnProgram) -> Iterator[Atom]:
    """``aux_1``, ``aux_2``, ... skipping every predicate name of
    ``mln.atoms``, whose earlier aux atoms are among them."""
    taken = {a.predicate for a in mln.atoms}
    return (Atom(f"aux_{k}") for k in count(1) if f"aux_{k}" not in taken)


def tseytin(mln: MlnProgram) -> MlnProgram:
    """Replace every non-literal conjunction appearing as a disjunct on the
    right-hand side of a completion implication with a defined auxiliary
    atom (one shared atom per distinct conjunction)."""
    memo: dict[Formula, Atom] = {}
    defs: list[tuple[Atom, Formula]] = []
    out: list[MlnFormula] = []
    fresh = _fresh_aux(mln)

    def aux_for(f: Formula) -> Formula:
        if not isinstance(f, FAnd):
            return f
        if f not in memo:
            memo[f] = next(fresh)
            defs.append((memo[f], f))
        return FAtom(memo[f])

    for mf in mln.formulas:
        f = mf.formula
        if isinstance(f, FImpl) and isinstance(f.lhs, FAtom):
            if isinstance(f.rhs, FOr):
                f = FImpl(f.lhs, FOr(tuple(aux_for(d) for d in f.rhs.subs)))
            else:
                f = FImpl(f.lhs, aux_for(f.rhs))
        out.append(MlnFormula(mf.weight, f))
    for a, d in defs:
        out.append(MlnFormula(HARD, FIff(FAtom(a), d)))
    return MlnProgram(tuple(out), mln.aux_defs + tuple(defs), mln.signature)


def aux_extract(mln: MlnProgram, target: Formula) -> MlnProgram:
    """Replace every occurrence of ``target`` with a fresh defined atom and
    add the hard biconditional defining it (the general one-subformula
    rewriting step)."""
    a = next(_fresh_aux(mln))
    out = [MlnFormula(mf.weight, _replace(mf.formula, target, FAtom(a)))
           for mf in mln.formulas]
    out.append(MlnFormula(HARD, FIff(FAtom(a), target)))
    return MlnProgram(tuple(out), mln.aux_defs + ((a, target),), mln.signature)


# --- exact evaluation -------------------------------------------------------

@dataclass(frozen=True)
class MlnDistribution:
    atoms: tuple[Atom, ...]
    entries: tuple[tuple[Interpretation, float], ...]

    def probability(self, interp: Interpretation) -> float:
        target = frozenset(interp)
        for w, p in self.entries:
            if w == target:
                return p
        return 0.0

    def marginal_of(self, atom: Atom) -> float:
        return _total(p for w, p in self.entries if atom in w)

    def project(self, drop) -> dict[Interpretation, float]:
        """Marginalize the listed atoms away."""
        drop = frozenset(drop)
        out: dict[Interpretation, float] = {}
        for w, p in self.entries:
            key = w - drop
            out[key] = out.get(key, 0.0) + p
        return out


def mln_distribution(mln: MlnProgram, cap: int = DEFAULT_ATOM_CAP) -> MlnDistribution:
    """Enumerate all interpretations of the program's atoms: zero mass on
    any world violating a hard formula, weight exp(sum of satisfied soft
    weights) elsewhere, normalized.  If no world satisfies every hard
    formula, mass concentrates on the worlds maximizing the number of
    satisfied hard formulas."""
    atoms = mln.atoms
    n = len(atoms)
    if n > cap:
        raise EnumerationCapError(cap, n, [
            (str(a), "aux atom" if a in mln.aux_atoms else "world atom") for a in atoms])
    hard = sum(1 << k for k, mf in enumerate(mln.formulas) if mf.weight.is_hard)
    weights = [0.0 if mf.weight.is_hard else mf.weight.value for mf in mln.formulas]

    def satisfied(val, full):
        truth = dict(zip(atoms, val))
        return [_lanes(mf.formula, truth, full) for mf in mln.formulas]

    worlds = _worlds(n, satisfied, hard)
    hards, softs = _weighed(worlds, hard, weights, False)
    _, probabilities = _normalise(hards, softs, "reward")
    entries = tuple((frozenset(atoms[i] for i in _bit_indices(bits)), p)
                    for bits, p in zip(worlds.read()[0], probabilities))
    return MlnDistribution(atoms, entries)


# --- text emission -----------------------------------------------------------

def _caps(name: str) -> str:
    """A predicate or constant capitalised; a quoted constant as it is, so
    that ``a``, ``"a"`` and ``"A"`` stay three constants."""
    return name if name.startswith('"') else name[:1].upper() + name[1:]


def _render_atom(a: Atom) -> str:
    if not a.args:
        return _caps(a.predicate)
    return f"{_caps(a.predicate)}({','.join(_caps(t.name) for t in a.args)})"


def _render(f: Formula, required: int = 0) -> str:
    """Render with minimal parentheses; ``required`` is the binding strength
    the surrounding context demands (iff=0 < impl=1 < or=2 < and=3 < not=4)."""
    if isinstance(f, FAtom):
        return _render_atom(f.atom)
    if isinstance(f, FNot):
        return "!" + _render(f.sub, 5)
    if isinstance(f, FAnd):
        if not f.subs:
            return "TRUE"
        text = " ^ ".join(_render(s, 4) for s in f.subs)
        return f"({text})" if 3 < required and len(f.subs) > 1 else text
    if isinstance(f, FOr):
        if not f.subs:
            return "FALSE"
        text = " v ".join(_render(s, 3) for s in f.subs)
        return f"({text})" if 2 < required and len(f.subs) > 1 else text
    if isinstance(f, FImpl):
        text = f"{_render(f.lhs, 2)} => {_render(f.rhs, 1)}"
        return f"({text})" if 1 < required else text
    if isinstance(f, FIff):
        text = f"{_render(f.lhs, 2)} <=> {_render(f.rhs, 2)}"
        return f"({text})" if 0 < required else text
    raise TypeError(f"not a formula: {f!r}")


def aux_mapping_text(mln: MlnProgram) -> str:
    """Sidecar content mapping each defined atom to its formula."""
    return "".join(f"{_render_atom(a)} <=> {_render(d)}\n" for a, d in mln.aux_defs)


def emit_mln_text(mln: MlnProgram) -> str:
    """Deterministic solver-style text: sort declaration, predicate
    declarations, then one formula per line (hard formulas end with '.',
    soft formulas carry a leading weight)."""
    consts = sorted({t.name for a in mln.atoms for t in a.args})
    schemas = sorted({a.schema for a in mln.atoms})
    lines = []
    if consts:
        lines.append("entity={" + ", ".join(_caps(c) for c in consts) + "}")
        lines.append("")
    for pred, arity in schemas:
        if arity:
            lines.append(f"{_caps(pred)}({', '.join(['entity'] * arity)})")
        else:
            lines.append(_caps(pred))
    if schemas:
        lines.append("")
    for mf in mln.formulas:
        if mf.weight.is_hard:
            lines.append(f"{_render(mf.formula)}.")
        else:
            lines.append(f"{mf.weight.value:.12g} {_render(mf.formula)}")
    if mln.aux_defs:
        lines.append("")
        for a, d in mln.aux_defs:
            lines.append(f"// {_render_atom(a)} <=> {_render(d)}")
    return "".join(line + "\n" for line in lines)
