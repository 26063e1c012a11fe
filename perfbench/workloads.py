"""The four workloads: seeded inputs, the op round, and output checks.

A workload is a fixed round of ops that the closed loop repeats.  The seed
picks the generated instances in the round; the kinds and order of ops do
not depend on it, so every seed asks for the same amount of work.
Generated CLI inputs come from a pool of ``POOL`` instances per family, so
that the digest of every CLI stdout can be recorded once (``digests.json``)
and checked on any seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from oracles import (
    FIRE_PUBLISHED, ROOT, bn_posterior, clique_all, clique_map,
    fire_all, naive_map_models, node_key, reach_marginals,
)

FIXTURES = ROOT / "src" / "lpmln" / "fixtures"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
POOL = 32
TOL = 1e-9
WORKLOADS = ("clique-map", "bn-query", "reach-query", "listing-translate")

CLIQUE_RULES = (
    "{in(X)} :- node(X).\n"
    "disconnected(X, Y) :- in(X), in(Y), not edge(X, Y).\n"
    "5 :- not in(X), node(X).\n"
    "5 :- disconnected(X, Y).\n"
)
REACH_RULES = (
    "path(X, Y) :- edge(X, Y).\n"
    "path(X, Y) :- path(X, Z), path(Z, Y).\n"
    "reach(X) :- path(n0, X).\n"
)
REACH_NODES = 14
REACH_SOFT = 5
# parents per node; both profiles give 12 CPT rows, hence 4096 candidates
BN_PROFILES = ((0, 0, 1, 2, 1, 1), (0, 0, 1, 1, 1, 1, 1))


@dataclass
class Op:
    """One user-level call.  ``kind`` is "cli" (``argv`` for ``cli.run``),
    "bn" (Bayes-net text through the library) or "roundtrip" (translate a
    fixture, then ``optimal_models``).  ``oracle`` says how to build the
    reference; a CLI op's stdout digest is recorded under its ``key``."""

    key: str
    kind: str
    argv: list = field(default_factory=list)
    data: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)


@dataclass
class Round:
    ops: list
    files: dict  # generated file name -> text, written during set-up


# --- generated families ------------------------------------------------------

def clique_instance(n: int, index: int):
    rng = random.Random(f"clique{n}/{index}")
    edges = {(i, j) for i in range(n) for j in range(n)
             if i == j or rng.random() < 0.5}
    text = CLIQUE_RULES + "\n" + "".join(f"node(n{i}).\n" for i in range(n))
    text += "\n" + "".join(f"edge(n{i}, n{j}).\n" for i, j in sorted(edges))
    return text, edges


def reach_instance(index: int):
    n, k = REACH_NODES, REACH_SOFT
    rng = random.Random(f"reach{n}/{index}")
    cuts = set(rng.sample(range(n - 1), k))
    hard = {(i, i + 1) for i in range(n - 1) if i not in cuts}
    soft: dict = {}
    while len(soft) < k:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and (a, b) not in hard and (a, b) not in soft:
            soft[(a, b)] = float(f"{rng.uniform(-2.0, 2.0):.4f}")
    lines = [f"node(n{i})." for i in range(n)]
    lines += [f"edge(n{a}, n{b})." for a, b in sorted(hard)]
    lines += [f"{w:.4f} edge(n{a}, n{b})." for (a, b), w in sorted(soft.items())]
    return REACH_RULES + "".join(l + "\n" for l in lines), hard, soft


def reach_emit_lines() -> int:
    """Lines of ``--mode emit-asp-rwd`` output on a reach instance.  Per
    ground rule: one ``sat`` rule per head atom and per body literal, the
    guarded rule itself, and one weak constraint."""
    n = REACH_NODES
    facts = n + (n - 1 - REACH_SOFT) + REACH_SOFT  # node, hard edge, soft edge
    # path :- edge (n^2), path :- path, path (n^3), reach :- path (n), facts
    return 4 * n * n + 5 * n ** 3 + 4 * n + 3 * facts


def bn_instance(seed: int, slot: int):
    rng = random.Random(f"bn/{seed}/{slot}")
    profile = BN_PROFILES[slot % 2]
    names = [f"x{i}" for i in range(len(profile))]
    nodes = []
    cpt = {}
    lines = []
    for i, k in enumerate(profile):
        parents = tuple(names[p] for p in sorted(rng.sample(range(i), k)))
        nodes.append((names[i], parents))
        lines.append(" ".join(("node", names[i]) + parents))
    for name, parents in nodes:
        for row in _rows(len(parents)):
            p = float(f"{rng.uniform(0.05, 0.95):.4f}")
            cpt[(name, row)] = p
            flags = ["t" if v else "f" for v in row]
            lines.append(" ".join(["cpt", name] + flags + [f"{p:.4f}"]))
    # two evidence nodes: every node is a fair coin over the pf candidates,
    # so evidence always leaves a quarter of them, whatever the network
    picked = rng.sample(names, 4)
    evidence = {q: rng.random() < 0.5 for q in picked[:2]}
    query = sorted(picked[2:])
    ev_text = "".join((f":- not {k}.\n" if v else f":- {k}.\n")
                      for k, v in evidence.items())
    return "\n".join(lines) + "\n", ev_text, nodes, cpt, evidence, query


def _rows(k: int):
    for mask in range(1 << k):
        yield tuple(not (mask >> (k - 1 - j) & 1) for j in range(k))


def fire_pf_weights() -> dict[str, float]:
    text = (FIXTURES / "fire_bayes.lpmln").read_text(encoding="utf-8")
    found = re.findall(r"^(-?\d+(?:\.\d+)?)\s+(pf\([^)]*\))\.", text, re.M)
    return {atom.replace(" ", ""): w for w, atom in found}


# --- rounds ------------------------------------------------------------------

PNT_FIXTURES = ("bird.lpmln", "smoke.lpmln", "clique10.lpmln", "fire_bayes.lpmln")
MLN_FIXTURES = ("bird.lpmln", "clique10.lpmln", "fire_bayes.lpmln")  # tight ones
GOLDEN = {("bird.lpmln", "emit-asp-pnt"): "bird_pnt.golden.lp",
          ("bird.lpmln", "emit-mln"): "bird_completed.golden.mln"}


def _fixture(name: str) -> str:
    return f"@fixture/{name}"


def _cli(key, argv, oracle):
    return Op(key, "cli", argv=argv, oracle=oracle)


def clique_map_op(index: int | None, flag: bool, files: dict) -> Op:
    """MAP on a generated ten-node clique, or on clique10.lpmln when
    ``index`` is None; ``flag`` adds ``-map``."""
    extra = ["-map"] if flag else []
    mode = "map-flag" if flag else "map"
    if index is None:
        return _cli(f"fixture/clique10.lpmln/{mode}", ["-i", _fixture("clique10.lpmln")] + extra,
                    {"type": "clique_map", "fixture": "clique10.lpmln"})
    name = f"clique10_{index}.lpmln"
    files[name] = clique_instance(10, index)[0]
    return _cli(f"clique10/{index}/{mode}", ["-i", name] + extra,
                {"type": "clique_map", "n": 10, "index": index})


def fire_query_op(evidence: str) -> Op:
    pred, _ = FIRE_PUBLISHED[evidence]
    return _cli(f"fixture/fire_bayes.lpmln/{evidence}",
                ["-i", _fixture("fire_bayes.lpmln"),
                 "-e", _fixture(f"fire_evid_{evidence}.db"), "-q", pred],
                {"type": "fire_published", "evidence": evidence})


def reach_ops(index: int, files: dict) -> tuple:
    """The marginal op and the reward-translation op on one instance."""
    name = f"reach{REACH_NODES}_{index}.lpmln"
    files[name] = reach_instance(index)[0]
    stem = f"reach{REACH_NODES}/{index}"
    return (_cli(f"{stem}/q", ["-i", name, "-q", "reach"], {"type": "reach", "index": index}),
            _cli(f"{stem}/emit-asp-rwd", ["-i", name, "--mode", "emit-asp-rwd"],
                 {"type": "lines", "lines": reach_emit_lines()}))


def clique_all_op(index: int, files: dict) -> Op:
    name = f"clique8_{index}.lpmln"
    files[name] = clique_instance(8, index)[0]
    return _cli(f"clique8/{index}/all", ["-i", name, "-all"],
                {"type": "clique_all", "n": 8, "index": index})


def emit_op(fixture: str, mode: str) -> Op:
    golden = GOLDEN.get((fixture, mode))
    oracle = {"type": "golden", "file": golden} if golden else {"type": "digest_only"}
    return _cli(f"fixture/{fixture}/{mode}", ["-i", _fixture(fixture), "--mode", mode], oracle)


def fire_all_op() -> Op:
    return _cli("fixture/fire_bayes.lpmln/all", ["-i", _fixture("fire_bayes.lpmln"), "-all"],
                {"type": "fire_all"})


def roundtrip_op(fixture: str, flavor: str) -> Op:
    return Op(f"{fixture}/{flavor}", "roundtrip",
              data={"fixture": fixture, "flavor": flavor},
              oracle={"type": "naive_map", "fixture": fixture})


def build_round(workload: str, seed: int) -> Round:
    rng = random.Random(f"{workload}/{seed}")
    files: dict = {}
    if workload == "clique-map":
        # relaxed-clique MAP on ten nodes: enumeration and weighing dominate
        picked = rng.sample(range(POOL), 15)
        ops = [clique_map_op(index, slot % 2 == 1, files) for slot, index in enumerate(picked)]
        ops.insert(7, clique_map_op(None, False, files))
    elif workload == "bn-query":
        # posteriors need every model; the fixture goes through the CLI, the
        # generated networks through parse_bayes_net -> bayes_to_lpmln
        ops = []
        for slot, evidence in enumerate(FIRE_PUBLISHED):
            ops.append(fire_query_op(evidence))
            net, ev_text, *_, query = bn_instance(seed, slot)
            ops.append(Op(f"bn/{seed}/{slot}", "bn",
                          data={"net": net, "evidence": ev_text, "query": query},
                          oracle={"type": "bn", "seed": seed, "slot": slot}))
    elif workload == "reach-query":
        # ~3000 ground rules, 32 candidates: grounding and analysis;
        # three marginals per translation keep the median on the marginals
        ops = []
        for slot, index in enumerate(rng.sample(range(POOL), 6)):
            query, emit = reach_ops(index, files)
            ops += [query, emit] if slot % 3 == 2 else [query]
    elif workload == "listing-translate":
        # -all listings re-ground per model; round trips brute-force markers.
        # Half the round is clique listings, so the median falls among them.
        cliques = [clique_all_op(i, files) for i in rng.sample(range(POOL), 6)]
        others = [
            emit_op(rng.choice(PNT_FIXTURES), "emit-asp-pnt"),
            roundtrip_op("smoke.lpmln", "penalty"),
            roundtrip_op("bird.lpmln", rng.choice(["penalty", "reward"])),
            fire_all_op(),
            emit_op(rng.choice(MLN_FIXTURES), "emit-mln"),
            roundtrip_op("smoke.lpmln", "reward"),
        ]
        ops = [op for pair in zip(cliques, others) for op in pair]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Round(ops, files)


def every_cli_op() -> Round:
    """Every CLI op any seed can produce, for recording stdout digests."""
    files: dict = {}
    ops = [clique_map_op(None, flag, files) for flag in (False, True)]
    ops += [fire_query_op(e) for e in FIRE_PUBLISHED]
    ops += [fire_all_op()]
    ops += [emit_op(f, "emit-asp-pnt") for f in PNT_FIXTURES]
    ops += [emit_op(f, "emit-mln") for f in MLN_FIXTURES]
    for index in range(POOL):
        ops += [clique_map_op(index, flag, files) for flag in (False, True)]
        ops += list(reach_ops(index, files))
        ops.append(clique_all_op(index, files))
    return Round(ops, files)


# --- references ----------------------------------------------------------------

def reference(op: Op):
    """The engine-independent expected answer for one op."""
    o = op.oracle
    t = o["type"]
    if t == "clique_map":
        if "fixture" in o:
            n, edges = _fixture_clique(o["fixture"])
        else:
            n, edges = o["n"], clique_instance(o["n"], o["index"])[1]
        return clique_map(n, edges)
    if t == "clique_all":
        return clique_all(o["n"], clique_instance(o["n"], o["index"])[1])
    if t == "fire_published":
        pred, p = FIRE_PUBLISHED[o["evidence"]]
        return {pred: p}
    if t == "fire_all":
        return fire_all(fire_pf_weights())
    if t == "bn":
        _, _, nodes, cpt, evidence, query = bn_instance(o["seed"], o["slot"])
        return bn_posterior(nodes, cpt, evidence, query)
    if t == "reach":
        _, hard, soft = reach_instance(o["index"])
        return reach_marginals(REACH_NODES, hard, soft)
    if t == "naive_map":
        return naive_map_models((FIXTURES / o["fixture"]).read_text(encoding="utf-8"))
    if t == "golden":
        return (FIXTURES / o["file"]).read_text(encoding="utf-8")
    if t == "lines":
        return o["lines"]
    if t == "digest_only":
        return None
    raise ValueError(f"unknown oracle {t!r}")


def _fixture_clique(name: str):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    nodes = sorted(int(m) for m in re.findall(r"^node\(n(\d+)\)\.", text, re.M))
    edges = {(int(a), int(b)) for a, b in
             re.findall(r"^edge\(n(\d+),\s*n(\d+)\)\.", text, re.M)}
    if nodes != list(range(len(nodes))):
        raise ValueError(f"{name}: clique nodes must be n0..n{len(nodes) - 1}")
    return len(nodes), edges


def references(rnd: Round) -> list:
    cache: dict = {}
    out = []
    for op in rnd.ops:
        k = json.dumps(op.oracle, sort_keys=True)
        if k not in cache:
            cache[k] = reference(op)
        out.append(cache[k])
    return out


# --- running and checking --------------------------------------------------------

def prepare(rnd: Round, workdir: Path) -> list:
    """Set-up: write the generated inputs, read the fixtures the library
    ops need, and return each op's argv with file names resolved."""
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in rnd.files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    argvs = []
    for op in rnd.ops:
        if op.kind == "roundtrip":
            op.data["text"] = (FIXTURES / op.data["fixture"]).read_text(encoding="utf-8")
        argvs.append([_resolve(a, rnd.files, workdir) for a in op.argv])
    return argvs


def _resolve(arg: str, files: dict, workdir: Path) -> str:
    if arg.startswith("@fixture/"):
        return str(FIXTURES / arg[len("@fixture/"):])
    if arg in files:
        return str(workdir / arg)
    return arg


def run_op(op: Op, argv: list, lpmln) -> tuple:
    """Execute one op; returns (exit code or None, output).  Exceptions
    propagate to the caller, which counts them as failures."""
    if op.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        code = lpmln.cli.run(argv, out, err)
        return code, out.getvalue()
    if op.kind == "bn":
        net = lpmln.parse_bayes_net(op.data["net"])
        program = lpmln.bayes_to_lpmln(net)
        evidence = lpmln.parse_evidence(op.data["evidence"])
        return None, lpmln.conditional(program, evidence, op.data["query"])
    if op.kind == "roundtrip":
        text = op.data["text"]
        program = lpmln.parse_program(text)
        if op.data["flavor"] == "penalty":
            tp = lpmln.translate_penalty(program, 1000, translate_hard=True)
        else:
            tp = lpmln.translate_reward(lpmln.ground_to_program(lpmln.ground(program)), 1000)
        return None, lpmln.optimal_models(tp)
    raise ValueError(f"unknown op kind {op.kind!r}")


def check(op: Op, code, output, ref, digests: dict) -> str | None:
    """None when the output is right, else a one-line reason."""
    if op.kind == "cli" and code != 0:
        return f"exit code {code}"
    wrong = _check_oracle(op.oracle["type"], output, ref)
    if wrong or op.kind != "cli":
        return wrong
    want = digests.get(op.key)
    if want is None:
        return "no recorded stdout digest"
    if hashlib.sha256(output.encode("utf-8")).hexdigest() != want:
        return "stdout differs from the digest recorded for it"
    return None


def _check_oracle(t: str, output, ref) -> str | None:
    if t == "clique_map":
        return _check_clique_map(output, ref)
    if t == "clique_all":
        return _check_listing(output, ref, _in_key)
    if t == "fire_all":
        return _check_listing(output, ref, _pf_key)
    if t in ("fire_published", "reach"):
        return _check_marginals(_parse_marginals(output), ref)
    if t == "bn":
        return _check_marginals({str(a): p for a, p in output.items()}, ref)
    if t == "naive_map":
        got = sorted(sorted(str(a) for a in m if a.predicate not in ("unsat", "sat"))
                     for m in output)
        return None if got == ref else f"optimal models {got} != oracle MAP {ref}"
    if t == "golden":
        return None if output == ref else "differs from the golden file"
    if t == "lines":
        n = output.count("\n")
        return None if n == ref else f"{n} lines, expected {ref}"
    if t == "digest_only":
        return None
    return f"unknown oracle {t!r}"


_ATOM = re.compile(r"[a-z_][A-Za-z0-9_]*(?:\([^()]*\))?")


def _atoms(line: str) -> list[str]:
    return _ATOM.findall(line)


def _in_key(atoms: list[str]):
    return node_key(int(a[4:-1]) for a in atoms if a.startswith("in(n")), None


def _pf_key(atoms: list[str]):
    source = [a for a in atoms if not a.startswith("unsat(")]
    pf = ",".join(sorted(a for a in source if a.startswith("pf(")))
    nodes = sorted(a for a in source if not a.startswith("pf("))
    return pf, nodes


def _check_clique_map(output: str, ref: dict) -> str | None:
    lines = output.splitlines()
    if not lines or lines[-1] != "OPTIMUM FOUND":
        return "no OPTIMUM FOUND line"
    sets, opts = [], []
    for atom_line, opt_line in zip(lines[0:-1:2], lines[1:-1:2]):
        sets.append(_in_key(_atoms(atom_line))[0])
        opts.append(opt_line)
    if sorted(sets) != ref["sets"]:
        return f"MAP sets {sorted(sets)} != oracle {ref['sets']}"
    if any(o != f"Optimization: {ref['opt']}" for o in opts):
        return f"optimization {opts} != {ref['opt']}"
    return None


def _check_listing(output: str, ref: dict, key_of) -> str | None:
    answers: dict = {}
    probs: dict = {}
    lines = output.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("Answer: "):
            k = int(line.split()[1])
            opt = int(lines[i + 2].split(": ")[1])
            answers[k] = key_of(_atoms(lines[i + 1])) + (opt,)
            i += 3
            continue
        if line.startswith("Probability of Answer "):
            head, p = line.rsplit(" : ", 1)
            probs[int(head.split()[-1])] = float(p)
        i += 1
    if len(answers) != len(ref) or set(probs) != set(answers):
        return f"{len(answers)} answers, expected {len(ref)}"
    seen = set()
    for k, (key, extra, opt) in answers.items():
        if key not in ref or key in seen:
            return f"answer {k} ({key}) is unexpected or repeated"
        seen.add(key)
        want = ref[key]
        if abs(probs[k] - want[0]) > TOL:
            return f"answer {k}: probability {probs[k]} != {want[0]}"
        # the CLI rounds a float sum of the weights; allow either side of a tie
        if abs(opt - want[1]) > 0.5 + 1e-6:
            return f"answer {k}: optimization {opt} != round({want[1]})"
        if extra is not None and extra != want[2]:
            return f"answer {k}: nodes {extra} != {want[2]}"
    return None


def _parse_marginals(output: str) -> dict:
    out = {}
    for line in output.splitlines():
        atom, p = line.rsplit(" ", 1)
        out[atom] = float(p)
    return out


def _check_marginals(got: dict, ref: dict) -> str | None:
    if set(got) != set(ref):
        return f"atoms {sorted(got)} != {sorted(ref)}"
    for a, p in ref.items():
        if not math.isfinite(got[a]) or abs(got[a] - p) > TOL:
            return f"{a}: {got[a]} != {p}"
    return None

