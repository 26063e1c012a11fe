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
``_vector`` weighs every model: one popcount per distinct weight when the
soft weights are whole numbers whose absolute values add up to less than
2**53 (``_classes``), which gives the same float as adding the counted
rules' weights one by one in rule order, and that walk otherwise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .engine import DEFAULT_ATOM_CAP, StableModelEnumerator, _bit_indices, _Compiled
from .grounder import GroundProgram, ground
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


def _vector(counted: int, hard: int, weights: list[float],
            classes: list[tuple[float, int]] | None) -> WeightVector:
    """The hard count and the soft total of the rules or formulas in the
    mask ``counted``; ``classes`` is ``_classes(hard, weights)``."""
    if classes is None:
        soft = _total(map(weights.__getitem__, _bit_indices(counted & ~hard)))
    else:
        soft = _total(w * (counted & mask).bit_count() for w, mask in classes)
    return WeightVector((counted & hard).bit_count(), soft)


def _weigh(gp: GroundProgram, interp: Interpretation, mode: str) -> WeightVector:
    comp = _Compiled(gp)
    return _vector(comp.counted(comp.violated(comp.bits_of(interp)), mode == "reward"),
                   comp.hard, comp.weights, _classes(comp.hard, comp.weights))


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
    """The stable models of one program as bitsets over ``comp``'s atoms,
    with each model's violation mask, weight vector and probability at the
    same position."""

    comp: _Compiled
    bits: list[int]
    violations: list[int]
    vectors: list[WeightVector]
    probabilities: list[float]


def _weigh_models(gp: GroundProgram, mode: str, hard_mode: str, cap: int) -> _Weighed:
    if mode not in ("reward", "penalty"):
        raise ValueError(f"unknown mode {mode!r}")
    enum = StableModelEnumerator(gp, hard_mode, cap)
    bits_list = enum.models_bits()
    if not bits_list:
        raise NoStableModelsError("no probabilistic stable models")

    comp = enum.comp
    classes = _classes(comp.hard, comp.weights)
    vectors = [_vector(comp.counted(v, mode == "reward"), comp.hard, comp.weights, classes)
               for v in enum.violations]
    _, probabilities = _normalise(vectors, mode)
    return _Weighed(comp, bits_list, enum.violations, vectors, probabilities)


def _normalise(vectors: list[WeightVector], mode: str) -> tuple[int, list[float]]:
    """The extremal hard tier of a non-empty list of weight vectors
    (maximal for reward, minimal for penalty) and each vector's
    probability: 0.0 off that tier; on it, the exponentiated signed soft
    tier, shifted by the tier's largest exponent, over the tier's total.
    ``ValueError`` when that total is undefined."""
    if mode == "reward":
        best_hard = max(v.hard for v in vectors)
        sign = 1.0
    else:
        best_hard = min(v.hard for v in vectors)
        sign = -1.0

    exponents = [sign * v.soft for v in vectors if v.hard == best_hard]
    shift = max(exponents)
    total = _total(math.exp(e - shift) for e in exponents)
    if math.isnan(total):  # an exponent of inf or nan, or every one -inf
        raise ValueError("soft weights add up past the float range")
    return best_hard, [math.exp(sign * v.soft - shift) / total if v.hard == best_hard else 0.0
                       for v in vectors]


def distribution(gp: GroundProgram, mode: str = "penalty",
                 hard_mode: str = "strict",
                 cap: int = DEFAULT_ATOM_CAP) -> Distribution:
    """Normalized distribution over SM[P].

    Models whose hard tier is not extremal (maximal for reward, minimal for
    penalty) get probability exactly 0 but remain listed.
    """
    w = _weigh_models(gp, mode, hard_mode, cap)
    return Distribution(mode, tuple(
        DistEntry(w.comp.interp_of(b), v, p)
        for b, v, p in zip(w.bits, w.vectors, w.probabilities)))


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
    w = _weigh_models(gp, "penalty", hard_mode, cap)
    tied = _most_probable(w)
    return MapResult(tuple(w.comp.interp_of(w.bits[k]) for k in tied),
                     tuple(_scaled(w.vectors[k].soft, scale) for k in tied), scale)


def _most_probable(w: _Weighed) -> list[int]:
    """Positions of the most probable models, ties within ``_TIE_EPS``."""
    best = max(w.probabilities)
    return [k for k, p in enumerate(w.probabilities) if p >= best - _TIE_EPS]


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
    probes = [(a, 1 << w.comp.index[a]) for a in targets]
    result = {a: 0.0 for a in targets}
    for b, p in zip(w.bits, w.probabilities):
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
    ``NoStableModelsError`` when it has none either."""
    if StableModelEnumerator(ground(program), hard_mode, cap).models_bits():
        raise InconsistentEvidenceError("evidence is inconsistent with the program")
    raise NoStableModelsError("no probabilistic stable models")
