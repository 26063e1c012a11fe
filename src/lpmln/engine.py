"""Stable-model decision and enumeration by reduct and minimality.

The enumerator decides membership in SM[P]: an interpretation I belongs to
SM[P] iff I is a stable model of the subset of rules it satisfies.  Under
``hard_mode="strict"`` interpretations violating a hard rule are excluded
from candidacy outright (mirroring solvers that pass hard rules through
verbatim); under ``hard_mode="relaxed"`` the full set SM[P] is produced.

Candidate generation is exhaustive over a *free* subset of the atoms
rather than the whole Herbrand base.  An atom is free when its value is
not forced by hard rules alone: it heads a soft rule (droppable), heads a
disjunctive rule, or sits in a dependency cycle through negation (which
covers desugared choice rules).  Everything else is either fixed false (no
rule can derive it) or computed by a stratified least fixpoint, component
by component.  Every generated candidate is still verified with the full
reduct/minimality check, so the pruning is a speedup, not a semantics.

Interpretations are manipulated as integer bitsets internally; the public
functions speak frozensets of atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .grounder import GroundProgram, GroundRule
from .model import Atom, Interpretation, atom_sort_key

DEFAULT_ATOM_CAP = 24


class EnumerationCapError(RuntimeError):
    def __init__(self, cap: int, size: int):
        super().__init__(
            f"enumeration needs {size} free atoms but the cap is {cap}; "
            "raise the cap to proceed")
        self.cap = cap
        self.size = size


@dataclass(frozen=True)
class Reduct:
    """Negation-free program: (head atoms, positive body atoms) pairs."""

    rules: tuple[tuple[frozenset, frozenset], ...]


def reduce_program(rules: Iterable[GroundRule], interp: Interpretation) -> Reduct:
    """Keep a rule iff every 'not A' has A outside I and every 'not not A'
    has A inside I; strip the negative literals from what remains."""
    out = []
    for r in rules:
        keep = True
        pos = set()
        for lit in r.body:
            if lit.negation == 0:
                pos.add(lit.atom)
            elif lit.negation == 1:
                if lit.atom in interp:
                    keep = False
                    break
            else:
                if lit.atom not in interp:
                    keep = False
                    break
        if keep:
            out.append((frozenset(r.head), frozenset(pos)))
    return Reduct(tuple(out))


@dataclass(frozen=True)
class _CompiledRule:
    head: int
    pos: int
    neg1: int
    neg2: int
    is_hard: bool
    weight: float  # 0.0 for hard rules
    disjunctive: bool


class _Compiled:
    """Bitset view of a ground rule set over a fixed atom ordering."""

    def __init__(self, rules: Sequence[GroundRule]):
        seen = set()
        for r in rules:
            seen.update(r.head)
            seen.update(l.atom for l in r.body)
        self.atoms: list[Atom] = sorted(seen, key=atom_sort_key)
        self.index = {a: i for i, a in enumerate(self.atoms)}
        self.rules: list[_CompiledRule] = []
        self.hard = 0  # bit k set iff rule k is hard
        for k, r in enumerate(rules):
            head = pos = neg1 = neg2 = 0
            for a in r.head:
                head |= 1 << self.index[a]
            for lit in r.body:
                bit = 1 << self.index[lit.atom]
                if lit.negation == 0:
                    pos |= bit
                elif lit.negation == 1:
                    neg1 |= bit
                else:
                    neg2 |= bit
            self.rules.append(_CompiledRule(
                head, pos, neg1, neg2, r.is_hard,
                0.0 if r.is_hard else r.weight.value, head.bit_count() > 1))
            if r.is_hard:
                self.hard |= 1 << k

    def bits_of(self, interp: Interpretation) -> int:
        bits = 0
        for a in interp:
            i = self.index.get(a)
            if i is not None:
                bits |= 1 << i
        return bits

    def interp_of(self, bits: int) -> Interpretation:
        return frozenset(self.atoms[i] for i in _bit_indices(bits))

    def check(self, bits: int, stop: int = 0) -> tuple[int, list[tuple[int, int]] | None]:
        """One pass over the rules for the interpretation ``bits``.

        Returns the violated rules as a mask (bit k for rule k) and the
        reduct of the satisfied rules: ``(head, positive body)`` of each
        one whose negative and double-negated literals hold.  The pass ends
        at the first violated rule in the mask ``stop``, with reduct None.
        """
        violated = 0
        reduct = []
        for k, r in enumerate(self.rules):
            if bits & r.neg1 or (bits & r.neg2) != r.neg2:
                continue
            if (bits & r.pos) == r.pos and not bits & r.head:
                violated |= 1 << k
                if stop & violated:
                    return violated, None
            else:
                reduct.append((r.head, r.pos))
        return violated, reduct

    def counted(self, violated: int, reward: bool) -> list[int]:
        """Indices, in rule order, of the rules a weight or a witness counts:
        the violated ones in penalty mode, the satisfied ones in reward mode."""
        if reward:
            return _bit_indices(((1 << len(self.rules)) - 1) & ~violated)
        return _bit_indices(violated)


def _least_fixpoint(reduct) -> int:
    # sound for non-disjunctive reducts; multi-atom heads never derive here
    derived = 0
    changed = True
    while changed:
        changed = False
        for head, pos in reduct:
            if head.bit_count() == 1 and not head & derived and (derived & pos) == pos:
                derived |= head
                changed = True
    return derived


def _minimal_subsets(reduct, bits: int) -> bool:
    """Minimality by subset search: no proper subset of I models the reduct."""
    if bits == 0:
        return True
    sub = (bits - 1) & bits
    while True:
        if _models_reduct(reduct, sub):
            return False
        if sub == 0:
            return True
        sub = (sub - 1) & bits


def _models_reduct(reduct, bits: int) -> bool:
    for head, pos in reduct:
        if (bits & pos) == pos and not bits & head:
            return False
    return True


def _is_minimal(reduct, bits: int) -> bool:
    """I is a minimal model of the reduct ``_Compiled.check`` returned for it
    (I models that reduct by construction): the least fixpoint when no
    reduct rule is disjunctive, subset search otherwise."""
    if any(h.bit_count() > 1 for h, _ in reduct):
        return _minimal_subsets(reduct, bits)
    return _least_fixpoint(reduct) == bits


def is_stable_model(rules: Iterable[GroundRule], interp: Interpretation) -> bool:
    """True iff I satisfies every rule and is a minimal model of the reduct."""
    comp = _Compiled(tuple(rules))
    bits = comp.bits_of(interp)
    if len(interp) != bits.bit_count():
        return False  # an atom outside the program's signature cannot be derived
    violated, reduct = comp.check(bits)
    return not violated and _is_minimal(reduct, bits)


class StableModelEnumerator:
    """Shared machinery behind ``enumerate_sm`` and the inference layer."""

    def __init__(self, gp: GroundProgram, hard_mode: str = "relaxed",
                 cap: int = DEFAULT_ATOM_CAP):
        if hard_mode not in ("strict", "relaxed"):
            raise ValueError(f"unknown hard mode {hard_mode!r}")
        self.hard_mode = hard_mode
        self.cap = cap
        self.comp = _Compiled(gp.rules)
        self._analyze()
        self._models: list[int] | None = None
        self.violations: list[int] = []

    # -- candidate-space analysis

    def _analyze(self) -> None:
        comp = self.comp
        n = len(comp.atoms)
        head_atoms = 0
        for r in comp.rules:
            head_atoms |= r.head
        free = 0
        for r in comp.rules:
            if r.disjunctive or (not r.is_hard) or self.hard_mode == "relaxed":
                free |= r.head

        # Dependency edges head -> body atom, flagged negative when the
        # body literal is under one or two negations.
        succ: list[list[int]] = [[] for _ in range(n)]
        neg_pairs = set()
        for r in comp.rules:
            heads = _bit_indices(r.head)
            body_pos = _bit_indices(r.pos)
            body_neg = _bit_indices(r.neg1 | r.neg2)
            for h in heads:
                succ[h].extend(body_pos)
                succ[h].extend(body_neg)
                for b in body_neg:
                    neg_pairs.add((h, b))

        comp_id = _tarjan_scc(n, succ)
        n_sccs = max(comp_id, default=-1) + 1
        scc_has_neg = [False] * n_sccs
        for h, b in neg_pairs:
            if comp_id[h] == comp_id[b]:
                scc_has_neg[comp_id[h]] = True
        for i in range(n):
            if scc_has_neg[comp_id[i]]:
                free |= 1 << i
        free &= head_atoms

        self.free_positions = _bit_indices(free)
        det = head_atoms & ~free

        # Deterministic atoms are derived per strongly connected component,
        # in dependency order (Tarjan emits components dependencies-first).
        scc_rules: list[list[_CompiledRule]] = [[] for _ in range(n_sccs)]
        for r in comp.rules:
            if r.head and not r.disjunctive and (r.head & det):
                scc_rules[comp_id[_bit_indices(r.head)[0]]].append(r)
        self.closure_stages = [rs for rs in scc_rules if rs]

    # -- enumeration

    def models_bits(self) -> list[int]:
        """The stable models as bitsets; ``self.violations[k]`` is the mask of
        the rules model k violates."""
        if self._models is not None:
            return self._models
        k = len(self.free_positions)
        if k > self.cap:
            raise EnumerationCapError(self.cap, k)
        comp = self.comp
        stop = comp.hard if self.hard_mode == "strict" else 0
        out = []
        violations = []
        for mask in range(1 << k):
            bits = 0
            for j, p in enumerate(self.free_positions):
                if mask >> j & 1:
                    bits |= 1 << p
            bits = self._closure(bits)
            violated, reduct = comp.check(bits, stop)
            if reduct is not None and _is_minimal(reduct, bits):
                out.append(bits)
                violations.append(violated)
        self._models = out
        self.violations = violations
        return out

    def _closure(self, bits: int) -> int:
        for stage in self.closure_stages:
            changed = True
            while changed:
                changed = False
                for r in stage:
                    if not bits & r.head and (bits & r.pos) == r.pos \
                            and not bits & r.neg1 and (bits & r.neg2) == r.neg2:
                        bits |= r.head
                        changed = True
        return bits

    def models(self) -> list[Interpretation]:
        return [self.comp.interp_of(b) for b in self.models_bits()]


def _bit_indices(bits: int) -> list[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _tarjan_scc(n: int, succ: list[list[int]]) -> list[int]:
    """Iterative Tarjan; returns component ids, dependencies numbered first."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp = [-1] * n
    counter = 0
    next_comp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            for i in range(pi, len(succ[v])):
                w = succ[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            work.pop()
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = next_comp
                    if w == v:
                        break
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
