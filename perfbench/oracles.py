"""Reference answers that share no code with ``lpmln.engine``.

Each oracle works from the generator's own description of an input (node
sets, edge sets, CPT rows, weights), not from anything the package parsed
or computed.  The one exception is the stable-model referee for the
translation round trips: it applies the set-based oracle in
``tests/helpers.py`` to the package's grounding of a small fixture, and
weighs the resulting models here.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Published fire-alarm posteriors, pinned to 1e-9 by the acceptance suite:
# evidence file suffix -> (query atom, probability).
FIRE_PUBLISHED = {
    "diagnostic": ("fire", 0.352151116689),
    "predictive": ("leaving", 0.862603541626),
    "mixed": ("alarm", 0.938679679707),
    "intercausal": ("tampering", 0.0102021964693),
    "explaining": ("tampering", 0.633397289908),
}

# Structure of fire_bayes.lpmln: node -> (pf tag, parents).  A node holds
# exactly when the pf atom of its parents' current row holds.
FIRE_NODES = (
    ("tampering", "t", ()),
    ("fire", "f", ()),
    ("alarm", "a", ("tampering", "fire")),
    ("smoke", "s", ("fire",)),
    ("leaving", "l", ("alarm",)),
    ("report", "r", ("leaving",)),
)
FIRE_NODES_TAG = {node: tag for node, tag, _ in FIRE_NODES}


def sigmoid(w: float) -> float:
    return 1.0 / (1.0 + math.exp(-w))


# --- relaxed clique --------------------------------------------------------

def clique_penalty(n: int, edges: set, members: tuple[int, ...]) -> int:
    """Soft penalty of choosing ``members``: 5 per node left out, 5 per
    ordered pair of chosen nodes without an edge."""
    missing = sum(1 for x in members for y in members
                  if x != y and (x, y) not in edges)
    return 5 * (n - len(members)) + 5 * missing


def _subsets(n: int):
    for mask in range(1 << n):
        yield tuple(i for i in range(n) if mask >> i & 1)


def clique_map(n: int, edges: set) -> dict:
    pens = {s: clique_penalty(n, edges, s) for s in _subsets(n)}
    best = min(pens.values())
    return {"sets": sorted(node_key(s) for s, p in pens.items() if p == best),
            "opt": best * 1000}


def clique_all(n: int, edges: set) -> dict:
    pens = {node_key(s): clique_penalty(n, edges, s) for s in _subsets(n)}
    z = sum(math.exp(-p) for p in pens.values())
    return {key: [math.exp(-p) / z, p * 1000] for key, p in pens.items()}


def node_key(members) -> str:
    return ",".join(f"n{i}" for i in sorted(members))


# --- fire-alarm listing ----------------------------------------------------

def fire_all(pf_weights: dict[str, str]) -> dict:
    """Every pf assignment of fire_bayes.lpmln with its probability, its
    exact scaled penalty and the nodes it makes true.  ``pf_weights`` maps
    each pf atom to its weight as written.  Keyed by the sorted pf atoms
    that hold."""
    names = sorted(pf_weights)
    out = {}
    for values in product((True, False), repeat=len(names)):
        chosen = {a for a, v in zip(names, values) if v}
        prob = 1.0
        penalty = Fraction(0)
        for a, v in zip(names, values):
            p = sigmoid(float(pf_weights[a]))
            prob *= p if v else 1.0 - p
            if not v:
                penalty += Fraction(pf_weights[a])
        state: dict[str, bool] = {}
        for node, tag, parents in FIRE_NODES:
            row = "".join(f"{FIRE_NODES_TAG[q]}{int(state[q])}" for q in parents)
            pf = f"pf({tag},{row})" if parents else f"pf({tag})"
            state[node] = pf in chosen
        nodes = sorted(n for n, v in state.items() if v)
        out[",".join(sorted(chosen))] = [prob, float(penalty * 1000), nodes]
    return out


# --- Boolean Bayesian networks ---------------------------------------------

def bn_posterior(nodes, cpt: dict, evidence: dict[str, bool],
                 query: list[str]) -> dict[str, float]:
    """P(q = true | evidence) for each query node, by summing the joint
    over every assignment.  ``nodes`` is [(name, parents)] parents-first,
    ``cpt[(name, parent values)]`` is P(name = true | parents)."""
    names = [n for n, _ in nodes]
    num = {q: 0.0 for q in query}
    den = 0.0
    for values in product((True, False), repeat=len(names)):
        world = dict(zip(names, values))
        if any(world[k] != v for k, v in evidence.items()):
            continue
        p = 1.0
        for name, parents in nodes:
            row = cpt[(name, tuple(world[q] for q in parents))]
            p *= row if world[name] else 1.0 - row
        den += p
        for q in query:
            if world[q]:
                num[q] += p
    return {q: num[q] / den for q in query}


# --- reachability ----------------------------------------------------------

def reach_marginals(n: int, hard: set, soft: dict) -> dict[str, float]:
    """P(reach(x)) for every node: x is reachable from n0 by one or more
    edges, summed over the 2^k subsets of the independent soft edges."""
    soft_edges = sorted(soft)
    out = {f"n{i}": 0.0 for i in range(n)}
    for values in product((True, False), repeat=len(soft_edges)):
        prob = 1.0
        edges = set(hard)
        for e, v in zip(soft_edges, values):
            p = sigmoid(soft[e])
            prob *= p if v else 1.0 - p
            if v:
                edges.add(e)
        succ: dict[int, list[int]] = {}
        for a, b in edges:
            succ.setdefault(a, []).append(b)
        seen: set[int] = set()
        frontier = list(succ.get(0, ()))
        while frontier:
            x = frontier.pop()
            if x not in seen:
                seen.add(x)
                frontier.extend(succ.get(x, ()))
        for x in seen:
            out[f"n{x}"] += prob
    return {f"reach({k})": v for k, v in out.items()}


# --- translation round trips -----------------------------------------------

def naive_map_models(program_text: str) -> list[list[str]]:
    """Most probable stable models (relaxed hard rules, penalty weighing)
    of a small program, from the set-based oracle in ``tests/helpers``."""
    tests_dir = str(ROOT / "tests")
    if tests_dir not in sys.path:
        sys.path.insert(0, tests_dir)
    from helpers import naive_sm  # noqa: E402  (the project's referee)
    from lpmln import ground, parse_program

    gp = ground(parse_program(program_text))
    scored = []
    for m in naive_sm(gp):
        hard = soft = 0
        for r in gp.rules:
            body = all((l.atom in m) if l.negation != 1 else (l.atom not in m)
                       for l in r.body)
            if body and not any(h in m for h in r.head):
                if r.weight.is_hard:
                    hard += 1
                else:
                    soft += r.weight.value
        scored.append((hard, soft, m))
    best_hard = min(h for h, _, _ in scored)
    best_soft = min(s for h, s, _ in scored if h == best_hard)
    return sorted(sorted(str(a) for a in m) for h, s, m in scored
                  if h == best_hard and s <= best_soft + 1e-9)
