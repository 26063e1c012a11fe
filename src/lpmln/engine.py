"""Stable-model decision and enumeration by reduct and minimality.

The enumerator decides membership in SM[P]: an interpretation I belongs to
SM[P] iff I is a stable model of the subset of rules it satisfies.  Under
``hard_mode="strict"`` interpretations violating a hard rule are excluded
from candidacy outright (mirroring solvers that pass hard rules through
verbatim); under ``hard_mode="relaxed"`` the full set SM[P] is produced.

Candidate generation is exhaustive over a *free* subset of the atoms
rather than the whole Herbrand base.  One propagator, ``_propagate``, a
least fixpoint over an atom bitset under a partial assignment, serves two
analyses.  Under the empty assignment it ignores negation and bounds the
atoms a stable model can hold; a rule with a positive or double-negated
body atom outside them holds in every candidate and is left out.  Among
the rules that remain, an atom is free when its value is not forced by
hard rules alone: it heads a soft rule (droppable), heads a disjunctive
rule, or sits in a dependency cycle through negation (which covers
desugared choice rules).  Everything else is either fixed false (no
remaining rule can derive it) or computed by a stratified least fixpoint,
component by component.  Once per program, the propagator bounds every
candidate from both sides over those components, each bound the other's
assignment: ``sure`` holds the atoms true in all of them, ``maybe`` the
atoms true in some.  A rule with a body literal fixed false or a head atom
in ``sure`` holds in every candidate and is dropped; the rest keep their
index and lose their fixed literals and head atoms.

Candidates are decided a slice at a time, bit-sliced: per slice of
``2 ** _LANE_BITS`` candidates every atom holds one integer whose bit m is
its value in the slice's candidate m (``_slices`` gives the low free atoms
fixed lane patterns, the others constants; ``_worlds`` decides its worlds
with it too).  Per slice, ``_derive`` closes every lane, one residual
closure stage after another; ``_rule_pass`` gives each residual rule the
lanes that violate it and the lanes whose reduct keeps it; strict mode
drops the lanes that violate a hard rule; and ``_stable_lanes`` keeps the
lanes that are minimal models of their reducts.  Every model of a lane's
reduct below its candidate holds what ``_derive`` derives from no atoms,
so a lane derived whole is minimal and one left with an unfounded atom is
not, unless a rule of the slice is disjunctive: then subset search above
the derived atoms settles that lane.  Minimality is decided above ``sure``
because every model of the reduct contains ``sure``, and a dropped rule is
satisfied by every interpretation between ``sure`` and the candidate.
These functions, with ``_kept_lanes`` as the one conjunction of lane
literals (only the fixpoint ``_derive`` keeps its own), are the only code
that decides reducts, violation and minimality: a single interpretation,
as in ``is_stable_model``, ``reduce_program`` and ``_Compiled.violated``,
is one lane over the full program.

Each slice keeps one record (``_record``): its stable lanes, the rules
they violate with those lanes, and the varying atoms' vectors; a slice
without a stable lane keeps an empty one.  ``_Records``, the records in
order, is the one owner of read-back and of the counters.  A model is read
back, into one atom bitset and one violation mask that index, and agree
with, the full program, only when a caller asks for it: ``read()`` reads
every model, and then the records are dropped; ``read(picks)`` reads the
models at some positions of the ascending candidate order.  ``counts``
reads no model: ``_count``, a bit-sliced ripple-carry counter per group of
rules over a slice's lanes, gives each model its packed number of violated
rules per group, which is how ``inference`` weighs whole-number weights.

``_worlds`` keeps the worlds of ``mln_backend``'s formulas that satisfy
every hard one or, when none does, the most, recording only the others.
The record layout, the lane patterns and the packed counts, which
``_unpack`` decodes, stay in the engine.

``_transpose`` is the one read-back: it packs a slice's vectors as the rows
of one bit matrix in one integer, transposes every 8x8 block with three
delta swaps and reads each lane with one strided byte slice.
``_bit_indices`` is the one reader of set bits, lanes and atoms alike:
zero or one set bit at once, a loop over the lowest set bit for a few,
else one pass over the binary digits, linear in the mask's length where
the loop is quadratic.  The analysis reads a single-atom head as
``head.bit_length() - 1``; a constraint, head mask 0, adds no edge.

Interpretations are manipulated as integer bitsets internally; the public
functions speak frozensets of atoms.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, count
from typing import Callable, Iterable, Iterator, Sequence

from .grounder import GroundProgram, GroundRule
from .model import Atom, Interpretation

DEFAULT_ATOM_CAP = 24
_CAP_SHOWN = 8  # free atoms an EnumerationCapError message names
_LANE_BITS = 10  # a slice decides 2 ** _LANE_BITS candidates at once


class EnumerationCapError(RuntimeError):
    """``free`` lists ``(atom, reason)`` pairs for the atoms enumerated; the
    message names the first few of them."""

    def __init__(self, cap: int, size: int, free: Sequence[tuple[str, str]] = ()):
        msg = (f"enumeration needs {size} free atoms but the cap is {cap}; "
               "raise the cap to proceed")
        if free:
            shown = ", ".join(f"{a} ({why})" for a, why in free[:_CAP_SHOWN])
            more = len(free) - _CAP_SHOWN
            msg += f"; free: {shown}" + (f" and {more} more" if more > 0 else "")
        super().__init__(msg)
        self.cap = cap
        self.size = size


@dataclass(frozen=True)
class Reduct:
    """Negation-free program: (head atoms, positive body atoms) pairs."""

    rules: tuple[tuple[frozenset, frozenset], ...]


def reduce_program(rules: Iterable[GroundRule], interp: Interpretation) -> Reduct:
    """Keep a rule iff every 'not A' has A outside I and every 'not not A'
    has A inside I (``_kept_lanes``, I as one lane); drop its negative literals."""
    comp = _Compiled(GroundProgram(tuple(rules)))
    bits = comp.bits_of(interp)
    val = [bits >> p & 1 for p in range(len(comp.atoms))]
    return Reduct(tuple((comp.interp_of(r.head), comp.interp_of(r.pos))
                        for r, _, _, neg1, neg2 in _lane_form(comp.rules)
                        if _kept_lanes(neg1, neg2, val, 1)))


@dataclass
class _CompiledRule:
    head: int
    pos: int
    neg1: int
    neg2: int
    index: int  # position in the ground program: bit ``index`` of a violation mask

    @property
    def disjunctive(self) -> bool:
        return self.head & (self.head - 1) != 0


class _Compiled:
    """Bitset view of a ground rule set over a fixed atom ordering."""

    def __init__(self, gp: GroundProgram):
        self.atoms: tuple[Atom, ...] = gp.atoms
        self.index = index = {a: i for i, a in enumerate(self.atoms)}
        self.rules: list[_CompiledRule] = []
        self.hard = 0  # bit k set iff rule k is hard
        self.weights: list[float] = []  # rule k's soft weight, 0.0 for a hard rule
        for k, r in enumerate(gp.rules):
            head = pos = neg1 = neg2 = 0
            for a in r.head:
                head |= 1 << index[a]
            for lit in r.body:
                if lit.negation == 0:
                    pos |= 1 << index[lit.atom]
                elif lit.negation == 1:
                    neg1 |= 1 << index[lit.atom]
                else:
                    neg2 |= 1 << index[lit.atom]
            self.rules.append(_CompiledRule(head, pos, neg1, neg2, k))
            weight = r.weight.value
            if weight is None:
                self.hard |= 1 << k
            self.weights.append(0.0 if weight is None else weight)

    def bits_of(self, interp: Interpretation) -> int:
        bits = 0
        for a in interp:
            i = self.index.get(a)
            if i is not None:
                bits |= 1 << i
        return bits

    def interp_of(self, bits: int) -> Interpretation:
        return frozenset(self.atoms[i] for i in _bit_indices(bits))

    def one_lane(self, bits: int) -> tuple[list[int], list, list]:
        """The lane vectors of the interpretation ``bits`` as the only lane,
        and ``_rule_pass`` over every rule under them."""
        val = [bits >> p & 1 for p in range(len(self.atoms))]
        return (val, *_rule_pass(_lane_form(self.rules), val, 1))

    def violated(self, bits: int) -> int:
        """The rules the interpretation ``bits`` violates, as a mask (bit k
        for rule k)."""
        return sum(1 << k for k, _ in self.one_lane(bits)[1])

    def counted(self, violated: int, reward: bool) -> int:
        """The mask of the rules a weight or a witness counts: the violated
        ones in penalty mode, the satisfied ones in reward mode."""
        return ((1 << len(self.rules)) - 1) & ~violated if reward else violated


def _compiled(gp: GroundProgram) -> _Compiled:
    """``gp``'s ``_Compiled``, built on first use and kept on ``gp``, as
    ``ground`` keeps its atoms: it is never changed once built.  Pickles and
    copies of ``gp`` leave it behind (``GroundProgram.__getstate__``)."""
    comp = gp.__dict__.get("_compiled")
    if comp is None:
        comp = gp.__dict__["_compiled"] = _Compiled(gp)
    return comp


def _minimal_subsets(reduct, bits: int, fixed: int = 0) -> bool:
    """Minimality by subset search: no proper subset of I that keeps the
    atoms ``fixed`` models the reduct."""
    rest = bits & ~fixed
    if rest == 0:
        return True
    sub = (rest - 1) & rest
    while True:
        if _models_reduct(reduct, sub | fixed):
            return False
        if sub == 0:
            return True
        sub = (sub - 1) & rest


def _models_reduct(reduct, bits: int) -> bool:
    for head, pos in reduct:
        if (bits & pos) == pos and not bits & head:
            return False
    return True


def is_stable_model(rules: Iterable[GroundRule], interp: Interpretation) -> bool:
    """True iff I satisfies every rule and is a minimal model of the reduct:
    the slice kernel with I as its only lane."""
    comp = _Compiled(GroundProgram(tuple(rules)))
    bits = comp.bits_of(interp)
    if len(interp) != bits.bit_count():
        return False  # an atom outside the program's signature cannot be derived
    val, violated, reduct = comp.one_lane(bits)
    if violated:
        return False
    return _stable_lanes(reduct, val, _bit_indices(bits), 1, 0) == 1


class StableModelEnumerator:
    """Shared machinery behind ``enumerate_sm`` and the inference layer.

    Once it has enumerated (``models_bits``, ``violations`` or
    ``_enumerate``) the candidates it tried, ``2 ** len(free_positions)``,
    split into the models, ``rejected_hard`` (strict mode: a hard rule is
    violated) and ``rejected_minimality`` (not a minimal model of its reduct).
    """

    def __init__(self, gp: GroundProgram, hard_mode: str = "relaxed",
                 cap: int = DEFAULT_ATOM_CAP):
        if hard_mode not in ("strict", "relaxed"):
            raise ValueError(f"unknown hard mode {hard_mode!r}")
        self.hard_mode = hard_mode
        self.cap = cap
        self.comp = _Compiled(gp)
        # Every atom of a stable model is in the least model of its reduct,
        # so propagation under the empty assignment, which ignores negation,
        # derives it.  A rule with a positive or double-negated body atom
        # outside that set is satisfied by every model and never fires in
        # its reduct: the analysis and the specialisation skip it.  The
        # CLI's grounder (_ground_live) keeps only the instances whose
        # positive body atoms are derivable, but this pass stays: library
        # callers hand in all of ground's instances, and it is the only
        # check of ``not not`` atoms, which _ground_live leaves to it.
        derivable = _propagate(self.comp.rules, 0, -1, 0)
        self._live = [r for r in self.comp.rules if not (r.pos | r.neg2) & ~derivable]
        self._analyze()
        self._specialise()
        self._decided: _Records | None = None
        self.rejected_hard = 0
        self.rejected_minimality = 0

    # -- candidate-space analysis

    def _analyze(self) -> None:
        comp = self.comp
        n = len(comp.atoms)
        head_atoms = soft = disjunctive = relaxed = 0
        # edges head -> body atom, positive ones first: the DFS order fixes the stage order
        succ: list[list[int]] = [[] for _ in range(n)]
        negative = []  # (head atoms, negated atoms) of each rule with both
        for r in self._live:
            head = r.head
            if not head:
                continue  # a constraint: it frees no atom and adds no edge
            head_atoms |= head
            if head & (head - 1):
                disjunctive |= head
                heads = _bit_indices(head)
            else:
                heads = (head.bit_length() - 1,)
            if not comp.hard >> r.index & 1:
                soft |= head
            elif self.hard_mode == "relaxed":
                relaxed |= head
            body = _bit_indices(r.pos)
            if r.neg1 | r.neg2:
                neg = _bit_indices(r.neg1 | r.neg2)
                negative.append((heads, neg))
                body += neg
            for h in heads:
                succ[h] += body

        comp_id = _tarjan_scc(n, succ)
        neg_sccs = {comp_id[h] for heads, neg in negative for h in heads
                    for b in neg if comp_id[b] == comp_id[h]}
        negative_cycle = sum(1 << i for i, c in enumerate(comp_id) if c in neg_sccs)
        free = (soft | disjunctive | relaxed | negative_cycle) & head_atoms

        self.free_positions = _bit_indices(free)
        self._reasons = (("soft head", soft), ("disjunctive head", disjunctive),
                         ("negative cycle", negative_cycle), ("relaxed hard", relaxed))
        det = head_atoms & ~free

        # Deterministic atoms are derived per strongly connected component,
        # in dependency order (Tarjan emits components dependencies-first).
        # No component holding a deterministic atom has a negative edge
        # inside it, so a stage's negated atoms are settled before it runs.
        scc_rules: list[list[_CompiledRule]] = [[] for _ in range(n)]
        for r in self._live:
            if r.head & det:  # so one atom: a disjunctive head's atoms are free
                scc_rules[comp_id[r.head.bit_length() - 1]].append(r)
        self.closure_stages = [rs for rs in scc_rules if rs]

    def _specialise(self) -> None:
        """Bound every candidate by propagation over the closure stages, the
        lower bound under the upper and the upper under the lower (a stage's
        negated atoms are settled when it runs), then keep only the rules
        whose truth can vary, stripped of their fixed literals and head atoms,
        each as one lane row, which its closure stage's rows share."""
        sure = 0  # true in every candidate
        maybe = sum(1 << p for p in self.free_positions)  # true in some candidate
        for stage in self.closure_stages:
            sure, maybe = _propagate(stage, sure, sure, maybe), _propagate(stage, maybe, maybe, sure)
        self.sure = sure
        self.residual = [_CompiledRule(r.head & maybe, r.pos & ~sure, r.neg1 & maybe,
                                       r.neg2 & ~sure, r.index)
                         for r in self._live
                         if not (r.pos & ~maybe or r.neg1 & sure or r.neg2 & ~maybe
                                 or r.head & sure)]  # the others hold in every candidate
        # every atom a lane row mentions can vary: fixed ones were stripped
        self._varying = _bit_indices(maybe & ~sure)
        self._lane_rules = _lane_form(self.residual)
        row = {form[0].index: form for form in self._lane_rules}
        stages = ([row[r.index] for r in stage if r.index in row] for stage in self.closure_stages)
        self._lane_stages = [rows for rows in stages if rows]

    def _free_atoms(self) -> list[tuple[str, str]]:
        """Each free atom with the first reason that makes it free."""
        out = []
        for p in self.free_positions:
            why = next(name for name, mask in self._reasons if mask >> p & 1)
            out.append((str(self.comp.atoms[p]), why))
        return out

    # -- enumeration

    def models_bits(self) -> list[int]:
        """The stable models as bitsets, in ascending candidate order (bit j
        of a candidate's number is the value of free atom j)."""
        return self._enumerate().read()[0]

    @property
    def violations(self) -> list[int]:
        """Per model of ``models_bits``, the mask of the rules it violates."""
        return self._enumerate().read()[1]

    def _enumerate(self) -> _Records:
        """Every slice, decided once by ``_decide_slice``: its lanes are the
        models, its pairs the rules they violate."""
        if self._decided is None:
            k = len(self.free_positions)
            if k > self.cap:
                raise EnumerationCapError(self.cap, k, self._free_atoms())
            self._decided = _Records(
                [self._decide_slice(val, full)
                 for val, full in _slices(self.free_positions, len(self.comp.atoms))],
                self._varying, self.sure)
        return self._decided

    def _decide_slice(self, val: list[int], full: int) -> tuple:
        """Decide every candidate of one slice at once.  ``val[p]`` is atom
        p's lane vector, set for the free atoms; bit m is its value in the
        slice's candidate m.  Returns the slice's ``_record``: the stable
        lanes, the ``(rule index, lanes that violate it)`` pairs and the
        varying atoms' vectors."""
        for stage in self._lane_stages:
            _derive([(r, head, pos, _kept_lanes(neg1, neg2, val, full))
                     for r, head, pos, neg1, neg2 in stage], val)
        violated, reduct = _rule_pass(self._lane_rules, val, full)
        alive = full
        if self.hard_mode == "strict":
            hard = self.comp.hard
            for k, lanes in violated:
                if hard >> k & 1:
                    alive &= ~lanes
        self.rejected_hard += (full ^ alive).bit_count()
        stable = _stable_lanes(reduct, val, self._varying, alive, self.sure)
        self.rejected_minimality += (alive ^ stable).bit_count()
        return _record(violated, full.bit_length(), stable, [val[p] for p in self._varying])

    def models(self) -> list[Interpretation]:
        return [self.comp.interp_of(b) for b in self.models_bits()]


def _record(pairs: Sequence[tuple[int, int]], width: int, lanes: int,
            columns: list[int]) -> tuple:
    """A decided slice of ``width`` lanes as ``(pairs, width, lanes,
    columns)``: the ``(index, vector)`` pairs masked to the kept ``lanes``,
    those left empty dropped, and the atoms' vectors ``columns``; with no
    lane kept, an empty record."""
    if not lanes:
        return [], width, 0, []
    return [(k, vec & lanes) for k, vec in pairs if vec & lanes], width, lanes, columns


class _Records:
    """Decided slices, in order, as ``_record``s, and the one owner of their
    read-back.  A record's kept lanes, in ascending order, follow those of
    the records before it; lane m's bitset holds ``sure`` and each atom
    position ``positions[i]`` whose vector ``columns[i]`` has m set, and
    its mask each index whose pair has m set.  Reading every lane caches
    the result and drops the records."""

    def __init__(self, records: list[tuple], positions: Sequence[int], sure: int):
        self.records: list[tuple] | None = records
        self.positions = positions
        self.sure = sure
        # a pair's row in the one transpose of a record: its index above the atoms
        self._off = positions[-1] + 1 if positions else 0
        self._atoms = (1 << self._off) - 1
        self._all: tuple[list[int], list[int]] | None = None

    def read(self, picks: Sequence[int] | None = None) -> tuple[list[int], list[int]]:
        """The bitsets and masks of the lanes at the ascending positions
        ``picks`` of the lane order, or of every lane; each record reads
        back only the lanes asked of it, its columns and pairs in one
        ``_transpose``."""
        if self._all is not None:
            bits, masks = self._all
            if picks is None:
                return bits, masks
            return [bits[k] for k in picks], [masks[k] for k in picks]
        bits, masks = [], []
        start = at = 0  # the record's first lane; the first pick not yet read
        for pairs, width, lanes, columns in self.records:
            if picks is not None:
                end = bisect_left(picks, start + lanes.bit_count(), at)
                ranks = [q - start for q in picks[at:end]]  # among the record's lanes
                start, at = start + lanes.bit_count(), end
                if not ranks:
                    continue
                order = _bit_indices(lanes)
                lanes = sum(1 << order[i] for i in ranks)
            rows = list(zip(self.positions, columns)) + [(self._off + k, vec) for k, vec in pairs]
            for both in _transpose(rows, width, lanes):
                bits.append(both & self._atoms | self.sure)
                masks.append(both >> self._off)
        if picks is None:
            self._all, self.records = (bits, masks), None
        return bits, masks

    def counts(self, groups: Sequence[int]) -> list[int]:
        """Per lane, in order, ``_count`` of its pairs over the disjoint
        index masks ``groups``; before every lane is read."""
        return [c for pairs, width, lanes, _ in self.records
                for c in _count(pairs, groups, width, lanes)]

    @classmethod
    def lane(cls, pairs: Sequence[tuple[int, int]]) -> _Records:
        """One record of one lane and no atoms, with the ``(index, 1)`` ``pairs``."""
        return cls([_record(pairs, 1, 1, [])], [], 0)


def _worlds(n: int, satisfied: Callable[[list[int], int], list[int]], group: int) -> _Records:
    """The records of the worlds over atoms ``0..n-1`` that satisfy every
    index of ``group`` (``satisfied(val, full)``: each index's lanes in a
    slice) or, if none does, in a second pass, the most of them.  Every
    kept world satisfies equally many: a record's pairs are the others."""
    required = _bit_indices(group)

    def record(sat, val, full, lanes):
        outside = [(k, vec) for k, vec in enumerate(sat) if not group >> k & 1]
        return _record(outside, full.bit_length(), lanes, val)

    kept = []
    for val, full in _slices(range(n), n):
        sat = satisfied(val, full)
        lanes = _kept_lanes((), required, sat, full)
        if lanes:
            kept.append(record(sat, val, full, lanes))
    if not kept:
        best = -1
        for val, full in _slices(range(n), n):
            sat = satisfied(val, full)
            top, lanes = 0, full
            for i, plane in reversed(_planes(list(enumerate(sat)), [group])):
                if lanes & plane:
                    lanes &= plane
                    top |= 1 << i
            if top > best:
                best, kept = top, []
            if top == best:
                kept.append(record(sat, val, full, lanes))
    return _Records(kept, range(n), 0)


def _slices(positions: Sequence[int], n: int) -> Iterator[tuple[list[int], int]]:
    """Every assignment to the atom positions ``positions`` of ``n``, in order, a slice
    at a time: ``val`` (bit m of ``val[p]`` is atom p's value in lane m) and ``full``,
    every lane set; bit j of an assignment is the value of ``positions[j]``."""
    k = len(positions)
    lanes = min(k, _LANE_BITS)
    full = (1 << (1 << lanes)) - 1
    # lane m of low position j holds bit j of m: blocks of 2**j zeros,
    # then 2**j ones, repeated
    low = [full // ((1 << 2 * h) - 1) * (((1 << h) - 1) << h)
           for h in (1 << j for j in range(lanes))]
    for s in range(1 << (k - lanes)):
        val = [0] * n
        for j, p in enumerate(positions):
            val[p] = low[j] if j < lanes else full if s >> (j - lanes) & 1 else 0
        yield val, full


def _lane_form(rules: Iterable[_CompiledRule]) -> list[tuple]:
    """Each rule with its head, positive, negated and double-negated atoms
    as position lists, the form ``_rule_pass`` reads."""
    return [(r, _bit_indices(r.head), _bit_indices(r.pos), _bit_indices(r.neg1),
             _bit_indices(r.neg2)) for r in rules]


def _rule_pass(rules: Sequence[tuple], val: list[int], full: int) -> tuple[list, list]:
    """One pass over rules in ``_lane_form`` under the lane vectors ``val``
    (bit m of ``val[p]`` is atom p's value in lane m; ``full`` has every
    lane set).  Returns the ``(rule index, lanes that violate it)`` pairs
    and the reduct: ``(rule, head atoms, positive atoms, lanes whose reduct
    keeps it)`` for each rule some lane keeps and satisfies."""
    violated = []
    reduct = []
    for r, head, pos, neg1, neg2 in rules:
        ok = _kept_lanes(neg1, neg2, val, full)
        if not ok:
            continue
        body = _kept_lanes(head, pos, val, ok)  # body true, every head atom false
        if body:
            violated.append((r.index, body))
        keep = ok & ~body
        if keep:
            reduct.append((r, head, pos, keep))
    return violated, reduct


def _kept_lanes(neg1: Sequence[int], neg2: Sequence[int], val: list[int], full: int) -> int:
    """The lanes of ``full`` where the atoms ``neg1`` are false and ``neg2``
    true; with a rule's ``not`` and ``not not`` atoms, those whose reduct keeps it."""
    for a in neg2:
        full &= val[a]
    for a in neg1:
        full &= ~val[a]
    return full


def _derive(reduct: Sequence[tuple], derived: list[int]) -> list[int]:
    """Lane-parallel least fixpoint of a reduct in ``_rule_pass``'s form,
    in place from the lane vectors ``derived``: entry p gains the lanes
    that derive atom p.  Only single-atom heads derive: from no atoms, a
    lower bound on every model of a lane's reduct below its candidate."""
    changed = True
    while changed:
        changed = False
        for _, head, pos, keep in reduct:
            if len(head) != 1:
                continue
            v = keep
            for a in pos:
                v &= derived[a]
            h = head[0]
            if v & ~derived[h]:
                derived[h] |= v
                changed = True
    return derived


def _stable_lanes(reduct: Sequence[tuple], val: list[int], varying: list[int],
                  alive: int, sure: int) -> int:
    """The lanes of ``alive`` whose candidate (``val`` over the positions
    ``varying``, plus ``sure``) is a minimal model of its reduct above
    ``sure``.  ``_derive`` accepts every lane whose candidate it derives
    whole.  A lane left with an unfounded atom is rejected, unless a rule of
    ``_rule_pass``'s ``reduct`` is disjunctive; then subset search on the
    lane's own reduct, above its derived atoms, settles it."""
    derived = _derive(reduct, [0] * len(val))
    unfounded = 0
    for p in varying:
        unfounded |= val[p] & ~derived[p]
    stable = alive & ~unfounded
    search = alive & unfounded
    if search and any(len(head) > 1 for _, head, _, _ in reduct):
        width = search.bit_length()
        lanes = zip(_bit_indices(search),
                    _transpose([(p, val[p]) for p in varying], width, search),
                    _transpose([(p, derived[p]) for p in varying], width, search))
        for m, bits, floor in lanes:
            lane_reduct = [(r.head, r.pos) for r, _, _, keep in reduct if keep >> m & 1]
            if _minimal_subsets(lane_reduct, bits | sure, floor | sure):
                stable |= 1 << m
    return stable


def _transpose(columns: list[tuple[int, int]], width: int, lanes: int) -> list[int]:
    """Turn lane vectors into bitsets.  ``columns`` pairs bit positions, in
    ascending order, with vectors over ``width`` lanes; for each lane set in
    ``lanes``, in ascending order, the result holds the bitset of the
    positions whose vector has that lane set.

    The vectors are the rows of one bit matrix packed into one integer: bit
    ``r * w + m`` is lane m of row ``r = p - base`` for position ``p``, and
    the rows between two positions are zero.  Three delta swaps transpose
    every 8x8 block in place.  Then each group of eight rows, ``w`` bytes,
    holds lane m's values in those rows at its byte ``(m & 7) * row + (m >>
    3)``, ``row`` bytes a row, so one slice with step ``w`` reads the lane."""
    if not columns or not lanes:
        return [0] * lanes.bit_count()
    w = max(width + 7 & ~7, 8)  # lanes a row, whole bytes
    row = w >> 3  # bytes a row
    base = columns[0][0]
    groups = columns[-1][0] - base + 8 >> 3  # 8-row blocks
    buf = bytearray(groups * w)
    keep = (1 << w) - 1  # a vector may set lanes past ``width``: keep the w of its row
    for p, vec in columns:
        start = (p - base) * row
        buf[start:start + row] = (vec & keep).to_bytes(row, "little")
    bits = int.from_bytes(buf, "little")
    for j, byte in (4, 0xF0), (2, 0xCC), (1, 0xAA):
        # in every 2j x 2j block, swap the j x j block above the diagonal
        # (rows with bit j clear, lanes with bit j set) with the one below it
        block = (bytes([byte]) * (row * j) + bytes(row * j)) * (4 // j)
        mask = int.from_bytes(block * groups, "little")
        d = j * (w - 1)  # from row i, lane l to row i + j, lane l - j
        t = (bits >> d ^ bits) & mask
        bits ^= t | t << d
    buf = bits.to_bytes(groups * w, "little")
    return [int.from_bytes(buf[(m & 7) * row + (m >> 3)::w], "little") << base
            for m in _bit_indices(lanes)]


def _count(pairs: Sequence[tuple[int, int]], groups: Sequence[int], width: int,
           lanes: int) -> list[int]:
    """For each lane set in ``lanes``, a mask over ``width`` lanes, in
    ascending order: how many of the ``(index, vector)`` pairs whose index
    is in each of the disjoint masks ``groups`` set that lane, packed into
    one integer that ``_unpack`` reads.  An index occurs in one pair at most."""
    return _transpose(_planes(pairs, groups), width, lanes)


def _fields(groups: Sequence[int]) -> list[int]:
    """The bits of each group's field in a packed count, above the ones before it."""
    return [g.bit_count().bit_length() for g in groups]


def _unpack(packed: int, groups: Sequence[int]) -> list[int]:
    """Each group's count in a packed count of ``_count`` over ``groups``."""
    counts = []
    for b in _fields(groups):
        counts.append(packed & (1 << b) - 1)
        packed >>= b
    return counts


def _planes(pairs: Sequence[tuple[int, int]], groups: Sequence[int]) -> list[tuple[int, int]]:
    """The bit-sliced counters behind ``_count``, as ``_transpose`` columns:
    lane m of the column at position ``offset + i`` is bit i of lane m's
    count in the group whose field starts at ``offset``."""
    counters = [[0] * b for b in _fields(groups)]
    for k, vec in pairs:
        for planes, mask in zip(counters, groups):
            if mask >> k & 1:
                i = 0
                while vec:  # ripple-carry add of one bit per lane
                    planes[i], vec = planes[i] ^ vec, planes[i] & vec
                    i += 1
                break
    return list(enumerate(plane for planes in counters for plane in planes))


def _propagate(rules: Sequence[_CompiledRule], bits: int, yes: int, no: int) -> int:
    """Least fixpoint from ``bits`` under a partial assignment: a rule adds
    its head atoms once its positive atoms are in ``bits``, its ``not not``
    atoms in ``yes`` and none of its ``not`` atoms in ``no``."""
    pending = rules
    while True:
        waiting = []
        for r in pending:
            if (bits & r.pos) == r.pos and (yes & r.neg2) == r.neg2 and not no & r.neg1:
                bits |= r.head
            else:
                waiting.append(r)
        if len(waiting) == len(pending):
            return bits
        pending = waiting


def _bit_indices(bits: int) -> list[int]:
    """The positions of the set bits of ``bits``, ascending."""
    if not bits & (bits - 1):  # zero or one set bit
        return [bits.bit_length() - 1] if bits else []
    if bits.bit_count() < 8:  # a few big-integer steps a bit
        out = []
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out
    # one C pass over the binary digits, lowest first, as 0 and 1 bytes
    return list(compress(count(), bin(bits)[:1:-1].encode().translate(_DIGIT_BITS)))


_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


def _tarjan_scc(n: int, succ: list[list[int]]) -> list[int]:
    """Iterative Tarjan, one edge iterator per DFS frame: component ids,
    dependencies first.  A visited node is on the stack while its id is -1."""
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = next_comp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            if index[v] == -1:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
            for w in edges:
                if index[w] == -1:
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] == -1:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if low[v] == index[v]:
                    while comp[v] == -1:
                        comp[stack.pop()] = next_comp
                    next_comp += 1
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
    return comp


def enumerate_sm(gp: GroundProgram, hard_mode: str = "relaxed",
                 cap: int = DEFAULT_ATOM_CAP) -> list[Interpretation]:
    """Enumerate SM[P] in a deterministic order.

    With ``hard_mode="strict"``, interpretations violating any hard rule are
    excluded from candidacy.
    """
    return StableModelEnumerator(gp, hard_mode, cap).models()
