"""Compile other probabilistic formalisms into weighted programs.

Three sources are supported: ProbLog-style probabilistic facts
(``p::atom.`` plus regular rules), weighted-formula programs embedded via
choice rules, and Boolean Bayesian networks given as a small line-oriented
text format (documented in the README).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .model import (
    HARD, Atom, Literal, Program, Rule, Term, _log_odds, merge_programs,
)
from .parser import _Parser


def problog_to_lpmln(facts, rules: Program | None = None) -> Program:
    """Each probabilistic fact (p, atom) becomes the soft fact
    ln(p/(1-p)): atom; the rules are appended as hard."""
    out: list[Rule] = []
    for k, (p, a) in enumerate(facts, start=1):
        if not 0.0 < p < 1.0:
            raise ValueError(f"probabilistic fact needs 0 < p < 1, got {p}")
        out.append(Rule(k, _log_odds(p), (a,)))
    prog = Program(tuple(out))
    if rules is None:
        return prog
    hardened = Program(tuple(Rule(r.index, HARD, r.head, r.body, r.is_choice)
                             for r in rules.rules))
    return merge_programs(prog, hardened)


def parse_problog(text: str) -> Program:
    """Parse ``p::atom.`` facts and regular (hard) rules into a program."""
    return Program(tuple(_Parser(text).parse_rules(allow_weights=False,
                                                   allow_problog=True)))


def mln_embed(formulas: Program, open_predicates=None) -> Program:
    """Append a hard choice rule ``{p(X1,...,Xn)}`` for every predicate
    schema, making every interpretation over those predicates stable and
    recovering the weighted-formula semantics of the input.

    ``open_predicates`` restricts which predicate names get a choice rule,
    for inputs whose remaining predicates are fixed by facts.
    """
    schemas = sorted(formulas.signature)
    if open_predicates is not None:
        wanted = set(open_predicates)
        schemas = [s for s in schemas if s[0] in wanted]
    choices = []
    for k, (pred, arity) in enumerate(schemas, start=1):
        args = tuple(Term(f"X{j}") for j in range(1, arity + 1))
        choices.append(Rule(k, HARD, (Atom(pred, args),), (), is_choice=True))
    return merge_programs(formulas, Program(tuple(choices)))


class MalformedNetworkError(ValueError):
    pass


# a node names a predicate of the input language: a lowercase identifier
# other than the body keyword "not"
_NODE_NAME = re.compile(r"[a-z][A-Za-z0-9_]*")


def _check_node_name(name: str, where: str = "") -> None:
    if not _NODE_NAME.fullmatch(name):
        raise MalformedNetworkError(f"{where}node name {name!r} is not a lowercase identifier")
    if name == "not":
        raise MalformedNetworkError(f"{where}node name {name!r} is a keyword of the input language")


@dataclass(frozen=True)
class BayesNet:
    """Boolean-variable network: node declarations (with parents) and one
    CPT entry P(node=t | parent values) per parent-value combination, and
    no other entry.  A node's name is its atom's predicate: a lowercase
    ASCII identifier (``_NODE_NAME``) other than ``not``."""

    nodes: tuple[tuple[str, tuple[str, ...]], ...]
    cpt: dict[tuple[str, tuple[bool, ...]], float]

    def __post_init__(self) -> None:
        names = [n for n, _ in self.nodes]
        for name in names:
            _check_node_name(name)
        if len(set(names)) != len(names):
            raise MalformedNetworkError("duplicate node")
        declared = set(names)
        seen: set[str] = set()
        for name, parents in self.nodes:
            for p in parents:
                if p not in declared:
                    raise MalformedNetworkError(f"undeclared parent {p!r} of {name!r}")
                if p not in seen:
                    raise MalformedNetworkError(
                        f"node {name!r} lists parent {p!r} declared later; "
                        "declare parents first")
            seen.add(name)
        for name, parents in self.nodes:
            for values in product((True, False), repeat=len(parents)):
                key = (name, values)
                if key not in self.cpt:
                    raise MalformedNetworkError(f"missing CPT entry for {key}")
                p = self.cpt[key]
                if not 0.0 <= p <= 1.0:
                    raise MalformedNetworkError(f"CPT entry {key} out of [0,1]: {p}")
        arity = {name: len(parents) for name, parents in self.nodes}
        for key in self.cpt:
            name, values = key
            if name not in arity:
                raise MalformedNetworkError(f"CPT entry {key} names an undeclared node")
            if len(values) != arity[name]:
                raise MalformedNetworkError(
                    f"CPT entry {key} does not match the {arity[name]} parents of {name!r}")

    @cached_property
    def abbrev(self) -> dict[str, str]:
        """Single-letter node tags when unambiguous, else full names."""
        initials = [n[0] for n, _ in self.nodes]
        unique = len(set(initials)) == len(initials)
        return {n: (n[0] if unique else n) for n, _ in self.nodes}

    def joint(self, assignment: dict[str, bool]) -> float:
        p = 1.0
        for name, parents in self.nodes:
            row = self.cpt[(name, tuple(assignment[q] for q in parents))]
            p *= row if assignment[name] else 1.0 - row
        return p


def parse_bayes_net(text: str) -> BayesNet:
    """Line format: ``node NAME [PARENT ...]`` declarations followed by
    ``cpt NAME [t|f ...] P`` rows; '#' starts a comment."""
    nodes: list[tuple[str, tuple[str, ...]]] = []
    cpt: dict[tuple[str, tuple[bool, ...]], float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "node" and len(parts) >= 2:
            _check_node_name(parts[1], f"line {lineno}: ")
            nodes.append((parts[1], tuple(parts[2:])))
        elif parts[0] == "cpt" and len(parts) >= 3:
            name = parts[1]
            flags = parts[2:-1]
            if not all(f in ("t", "f") for f in flags):
                raise MalformedNetworkError(
                    f"line {lineno}: parent values must be t or f")
            try:
                p = float(parts[-1])
            except ValueError:
                raise MalformedNetworkError(
                    f"line {lineno}: cannot read probability {parts[-1]!r}") from None
            key = (name, tuple(f == "t" for f in flags))
            if key in cpt:
                raise MalformedNetworkError(f"line {lineno}: duplicate CPT row for {key}")
            cpt[key] = p
        else:
            raise MalformedNetworkError(f"line {lineno}: cannot parse {raw!r}")
    return BayesNet(tuple(nodes), cpt)


def _pf_atom(net: BayesNet, name: str, values: tuple[bool, ...]) -> Atom:
    parents = dict(net.nodes)[name]
    tag = net.abbrev[name]
    if not parents:
        return Atom("pf", (Term(tag),))
    token = "".join(net.abbrev[p] + ("1" if v else "0")
                    for p, v in zip(parents, values))
    return Atom("pf", (Term(tag), Term(token)))


def bayes_to_lpmln(net: BayesNet) -> Program:
    """Per CPT entry with probability p: a soft fact ln(p/(1-p)) on a
    ``pf`` atom when 0 < p < 1, a hard fact when p = 1, and a hard
    constraint forbidding the atom when p = 0.  Per node, one hard rule per
    parent-value row derives the node from its parents' signs and the
    row's pf atom."""
    rules: list[Rule] = []
    nxt = 1

    def push(weight, head, body=()):
        nonlocal nxt
        rules.append(Rule(nxt, weight, head, tuple(body)))
        nxt += 1

    for name, parents in net.nodes:
        for values in product((True, False), repeat=len(parents)):
            pf = _pf_atom(net, name, values)
            p = net.cpt[(name, values)]
            if p == 1.0:
                push(HARD, (pf,))
            elif p == 0.0:
                push(HARD, (), (Literal(pf, 0),))
            else:
                push(_log_odds(p), (pf,))
    for name, parents in net.nodes:
        for values in product((True, False), repeat=len(parents)):
            body = [Literal(Atom(parent), 0 if v else 1)
                    for parent, v in zip(parents, values)]
            body.append(Literal(_pf_atom(net, name, values), 0))
            push(HARD, (Atom(name),), body)
    return Program(tuple(rules))
