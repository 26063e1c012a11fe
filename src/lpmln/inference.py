"""Weights, probabilities, and query modes over stable models.

The infinite-weight limit is realized lexicographically: models are ranked
first by their hard tier (an integer count of hard rules) and probability
mass is shared, proportionally to the exponentiated soft tier, only among
models with the extremal hard tier.  No finite stand-in for the infinite
weight is ever used.

Every query function takes ``hard_mode``: ``"strict"`` (default) enforces
hard rules outright, ``"relaxed"`` lets them participate in the hard-tier
ranking, which is what makes inconsistency diagnosis possible.

``_total`` adds every float sum and ``_scaled`` rounds every scaled weight.
``_weighed`` is the one weighing: it gives every lane of a list of decided
slices (``engine._Records``) a hard count and a soft total.  The lanes are
the stable models of a program, the worlds ``engine._worlds`` keeps or,
for ``weight_*``, one interpretation (``_Records.lane``).  When the
soft weights are whole numbers whose absolute values add up to less than
2**53 (``_classes``), the counts come from the slices' bit-sliced counters,
one per distinct weight and one for the hard rules, without reading a lane
back (``engine._unpack`` decodes them, the layout is the engine's), and
``_by_class`` adds ``weight * count`` in class order: the same float as
adding the counted rules' weights one by one in rule order, which
``_weights`` does otherwise and which stays the reference.  Callers read
back only the models they print or return, and build a ``WeightVector``
only where the public API returns one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .engine import (DEFAULT_ATOM_CAP, StableModelEnumerator, _bit_indices, _compiled, _Records,
                     _unpack)
from .grounder import GroundProgram, _ground_live, ground
from .model import Atom, Interpretation, Program, merge_programs

DEFAULT_SCALE = 1000
_TIE_EPS = 1e-9


class NoStableModelsError(RuntimeError):
    pass


class InconsistentEvidenceError(NoStableModelsError):
    pass


class UnknownPredicateWarning(UserWarning):
    pass


@dataclass(frozen=True)
class WeightVector:
    """Lexicographic weight: integer hard tier, real soft tier.

    Reward mode counts satisfied rules, penalty mode counts violated ones.
    """

    hard: int
    soft: float


@dataclass(frozen=True)
class DistEntry:
    interpretation: Interpretation
    weight: WeightVector
    probability: float


@dataclass(frozen=True)
class Distribution:
    mode: str
    entries: tuple[DistEntry, ...]

    def probability(self, interp: Interpretation) -> float:
        for e in self.entries:
            if e.interpretation == interp:
                return e.probability
        return 0.0

    def support(self) -> list[DistEntry]:
        return [e for e in self.entries if e.probability > 0.0]


def _total(values) -> float:
    """``values`` added one at a time, in order, from 0.0: ``sum``
    compensates on Python 3.12+, which could move the last digits."""
    total = 0.0
    for v in values:
        total += v
    return total


def _scaled(value: float, scale: int) -> int:
    """``value * scale`` rounded to an int; ``ValueError`` past the float range."""
    try:
        return int(round(value * scale))
    except OverflowError:
        raise ValueError(f"{value!r} at scale {scale} is out of range") from None


def _check_scale(scale: int) -> None:
    """``ValueError`` unless ``scale``, the factor of every scaled weight, is at least 1."""
    if scale < 1:
        raise ValueError("scale must be a positive integer")


def _classes(hard: int, weights: list[float]) -> list[tuple[float, int]] | None:
    """The soft rules or formulas grouped by weight, as ``(weight, mask)``
    pairs in order of first occurrence, when every soft weight is an integer
    and their absolute values add up to less than 2**53; else None.  Every
    soft total is then an integer below 2**53 in any grouping, so adding
    ``weight * count`` per class gives the float of the walk rule by rule."""
    soft = _bit_indices(((1 << len(weights)) - 1) & ~hard)
    if not all(weights[k].is_integer() for k in soft) \
            or _total(abs(weights[k]) for k in soft) >= 2 ** 53:
        return None
    masks: dict[float, int] = {}
    for k in soft:
        masks[weights[k]] = masks.get(weights[k], 0) | 1 << k
    return list(masks.items())


def _by_class(classes: list[tuple[float, int]], counts) -> float:
    """The soft total of ``counts[c]`` rules or formulas of each class c of
    ``classes``, added in class order."""
    return _total(w * n for (w, _), n in zip(classes, counts))


def _weights(counted: list[int], hard: int, weights: list[float]) -> tuple[list[int], list[float]]:
    """The hard count and the soft total of the rules or formulas in each
    mask of ``counted``, as two columns, the soft ones added one by one."""
    return ([(c & hard).bit_count() for c in counted],
            [_total(map(weights.__getitem__, _bit_indices(c & ~hard))) for c in counted])


def _weighed(records: _Records, hard: int, weights: list[float],
             complement: bool) -> tuple[list[int], list[float]]:
    """Each lane's hard count and soft total, as two columns, of the rules
    or formulas its pairs in ``records`` give or, with ``complement``, of
    the others.  For whole-number weights (``_classes``) they come from the
    counters over the hard mask and each class, each distinct packed count
    decoded (``engine._unpack``) and weighed once; else ``_weights`` walks
    every lane's mask."""
    classes = _classes(hard, weights)
    if classes is None:
        everything = (1 << len(weights)) - 1
        return _weights([everything & ~m if complement else m for m in records.read()[1]],
                        hard, weights)
    groups = [hard] + [mask for _, mask in classes]
    counts = records.counts(groups)
    memo = {}
    for packed in set(counts):
        n = [g.bit_count() - c if complement else c
             for g, c in zip(groups, _unpack(packed, groups))]
        memo[packed] = n[0], _by_class(classes, n[1:])
    return [memo[c][0] for c in counts], [memo[c][1] for c in counts]


def _weigh(gp: GroundProgram, interp: Interpretation, mode: str) -> WeightVector:
    """``_weighed`` with ``interp`` as the one lane (``_Records.lane``)."""
    comp = _compiled(gp)
    _, violated, _ = comp.one_lane(comp.bits_of(interp))
    (hard,), (soft,) = _weighed(_Records.lane(violated), comp.hard, comp.weights, mode == "reward")
    return WeightVector(hard, soft)


def weight_reward(gp: GroundProgram, interp: Interpretation) -> WeightVector:
    """Hard tier = satisfied hard rules, soft tier = sum of satisfied soft
    weights; the model weight is exp(alpha*hard + soft) symbolically."""
    return _weigh(gp, interp, "reward")


def weight_penalty(gp: GroundProgram, interp: Interpretation) -> WeightVector:
    """Hard tier = violated hard rules, soft tier = sum of violated soft
    weights; the model weight is exp(-alpha*hard - soft) symbolically."""
    return _weigh(gp, interp, "penalty")


@dataclass(frozen=True)
class _Weighed:
    """The stable models of one program, as ``enum`` enumerated them: each
    model's hard count, soft total and probability at its position.
    ``enum._enumerate().read`` gives the bitsets and violation masks of the
    models asked for, ``enum.models_bits()`` and ``enum.violations`` of all."""

    enum: StableModelEnumerator
    hard: list[int]
    soft: list[float]
    probabilities: list[float]


def _weigh_models(gp: GroundProgram, mode: str, hard_mode: str, cap: int) -> _Weighed:
    if mode not in ("reward", "penalty"):
        raise ValueError(f"unknown mode {mode!r}")
    enum = StableModelEnumerator(gp, hard_mode, cap)
    hard, soft = _weighed(enum._enumerate(), enum.comp.hard, enum.comp.weights,
                          mode == "reward")
    if not hard:
        raise NoStableModelsError("no probabilistic stable models")
    _, probabilities = _normalise(hard, soft, mode)
    return _Weighed(enum, hard, soft, probabilities)


def _normalise(hard: list[int], soft: list[float], mode: str) -> tuple[int, list[float]]:
    """The extremal hard count of a non-empty column ``hard`` (maximal for
    reward, minimal for penalty) and each model's probability: 0.0 off
    that tier; on it, the exponentiated signed soft total, shifted by the
    tier's largest exponent, over the tier's total.  ``ValueError`` when
    that total is undefined."""
    if mode == "reward":
        best_hard = max(hard)
        sign = 1.0
    else:
        best_hard = min(hard)
        sign = -1.0

    tier = [s for h, s in zip(hard, soft) if h == best_hard]
    shift = max(sign * s for s in tier)
    exp = {s: math.exp(sign * s - shift) for s in set(tier)}  # once per distinct total
    total = _total(map(exp.__getitem__, tier))
    if math.isnan(total):  # an exponent of inf or nan, or every one -inf
        raise ValueError("soft weights add up past the float range")
    p = {s: e / total for s, e in exp.items()}
    return best_hard, [p[s] if h == best_hard else 0.0 for h, s in zip(hard, soft)]


def distribution(gp: GroundProgram, mode: str = "penalty",
                 hard_mode: str = "strict",
                 cap: int = DEFAULT_ATOM_CAP) -> Distribution:
    """Normalized distribution over SM[P].

    Models whose hard tier is not extremal (maximal for reward, minimal for
    penalty) get probability exactly 0 but remain listed.
    """
    w = _weigh_models(gp, mode, hard_mode, cap)
    return Distribution(mode, tuple(
        DistEntry(w.enum.comp.interp_of(b), WeightVector(h, s), p)
        for b, h, s, p in zip(w.enum.models_bits(), w.hard, w.soft, w.probabilities)))


@dataclass(frozen=True)
class MapResult:
    models: tuple[Interpretation, ...]
    optimizations: tuple[int, ...]  # _scaled(soft penalty, scale), for display
    scale: int


def map_estimate(gp: GroundProgram, hard_mode: str = "strict",
                 cap: int = DEFAULT_ATOM_CAP,
                 scale: int = DEFAULT_SCALE) -> MapResult:
    """All most probable stable models (ties included), with each model's
    scaled integer penalty for display."""
    _check_scale(scale)
    w, tied, bits, _ = _map_models(gp, hard_mode, cap)
    return MapResult(tuple(map(w.enum.comp.interp_of, bits)),
                     tuple(_scaled(w.soft[k], scale) for k in tied), scale)


def _map_models(gp: GroundProgram, hard_mode: str,
                cap: int) -> tuple[_Weighed, list[int], list[int], list[int]]:
    """The one MAP selection: the models weighed in penalty mode, the
    positions of the most probable ones (ties within ``_TIE_EPS``), and
    only those models' bitsets and violation masks, read back."""
    w = _weigh_models(gp, "penalty", hard_mode, cap)
    best = max(w.probabilities)
    tied = [k for k, p in enumerate(w.probabilities) if p >= best - _TIE_EPS]
    return (w, tied, *w.enum._enumerate().read(tied))


def marginal(gp: GroundProgram, query_preds, mode: str = "penalty",
             hard_mode: str = "strict",
             cap: int = DEFAULT_ATOM_CAP) -> dict[Atom, float]:
    """Per-atom probability: the summed probability of the stable models
    containing each ground atom whose predicate name is queried."""
    preds = set(query_preds)
    known = {a.predicate for a in gp.atoms}
    for name in sorted(preds - known):
        warnings.warn(f"query predicate {name!r} does not occur in the program",
                      UnknownPredicateWarning, stacklevel=2)
    targets = [a for a in gp.atoms if a.predicate in preds]
    w = _weigh_models(gp, mode, hard_mode, cap)
    probes = [(a, 1 << w.enum.comp.index[a]) for a in targets]
    result = {a: 0.0 for a in targets}
    for b, p in zip(w.enum.models_bits(), w.probabilities):
        if p == 0.0:
            continue
        for a, bit in probes:
            if b & bit:
                result[a] += p
    return result


def conditional(program: Program, evidence: Program, query_preds,
                mode: str = "penalty", hard_mode: str = "strict",
                cap: int = DEFAULT_ATOM_CAP) -> dict[Atom, float]:
    """Marginal of the program merged with the evidence rules.

    Evidence must be hard-only (usually constraints); an evidence set that
    kills every stable model is reported as inconsistent.
    """
    for r in evidence.rules:
        if r.weight.is_soft:
            raise ValueError(f"evidence rule {r.index} is not hard")
    merged = merge_programs(program, evidence)
    gp = ground(merged)
    try:
        return marginal(gp, query_preds, mode, hard_mode, cap)
    except NoStableModelsError:
        _blame_evidence(program, hard_mode, cap)


def _blame_evidence(program: Program, hard_mode: str, cap: int) -> None:
    """Raise the error for a program that has no stable model once evidence
    is added: ``InconsistentEvidenceError`` when the program alone has one,
    ``NoStableModelsError`` when it has none either.  Whether a stable
    model exists does not depend on the instances that cannot fire, so only
    the others are grounded."""
    if StableModelEnumerator(_ground_live(program), hard_mode, cap).models_bits():
        raise InconsistentEvidenceError("evidence is inconsistent with the program")
    raise NoStableModelsError("no probabilistic stable models")
