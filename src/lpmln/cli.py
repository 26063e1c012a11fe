"""Command-line entry point.

    lpmln -i <file> [-e <file>] [-q <preds>] [-all] [-hr] [-map]
          [-r <file>] [-clingo "<opts>"] [--mode M] [--scale N]

Mode resolution for --mode infer: -q without -e computes marginals, -q
with -e conditionals, -all lists every stable model with its probability,
otherwise a MAP estimate is printed.  --mode emit-asp-pnt / emit-asp-rwd /
emit-mln export the translations instead of running inference.  Inference
weighs in penalty mode, where an instance that cannot fire is never
violated, so it grounds only the instances that can (``_ground_live``),
over the atoms of those instances and, under -q, every atom of a queried
predicate, so that an underivable one prints at 0.  The translations
cover every instance: emit-asp-rwd renders its text straight from each
source rule's substitutions (``asp_backend._reward_text``), without
grounding the program first; emit-mln grounds it.  The argument parser is
built once, at import; ``run`` only parses.

Exit codes: 0 success (-h too, its help on run's stdout), 1 parse, safety
or usage error (an LPMLN_ATOM_CAP that is not a non-negative integer and
--scale below 1 included), 2 enumeration cap exceeded, 3 inconsistent
evidence / no stable models (the evidence is blamed only when the program
alone has a stable model).  Every error is one "error:" line on run's
stderr.  The environment variable LPMLN_ATOM_CAP overrides the
enumeration cap; it and --scale are ASCII decimal numerals.

-all and MAP print their models through one printer (``_model_printer``).
Once per run it builds text tables: per byte of the atom bitset, a memo
from the byte's value to the joined names of its atoms (bit order is print
order), and the same over the sorted unsat markers of the rules the
printed models violate.  A value is filled from the value without its
lowest bit: that bit's name, a space, then the memoised rest.  Per model
it reads the bytes of the violation mask, the bitset and the marker bits,
looks them up and joins once.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import warnings
from operator import or_
from pathlib import Path

from . import asp_backend, inference, mln_backend
from .engine import DEFAULT_ATOM_CAP, EnumerationCapError, _bit_indices
from .grounder import GroundingCapError, _ground_live, ground
from .model import _Memo, atom_sort_key, merge_programs
from .parser import parse_evidence, parse_program, parse_query_spec

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAP = 2
EXIT_UNSAT = 3


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ``ValueError(message)``, for ``run`` to report."""

    def error(self, message):
        raise ValueError(message)


class _Help(Exception):
    """``-h`` was given: parsing stops, as at argparse's help."""


class _HelpAction(argparse.Action):
    """``-h``: raises a fresh ``_Help``, so that no traceback gathers on the
    one parser's action from run to run."""

    def __call__(self, parser, namespace, values, option_string=None):
        raise _Help


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="lpmln", add_help=False, description=(
        "Exact inference and translations for weighted answer set programs."))
    p.add_argument("-h", "--help", action=_HelpAction, nargs=0, help="show this help message and exit")
    p.add_argument("-i", dest="input", required=True, metavar="FILE",
                   help="input program")
    p.add_argument("-e", dest="evidence", metavar="FILE",
                   help="evidence file (hard rules, usually constraints)")
    p.add_argument("-q", dest="query", metavar="PREDS",
                   help="comma-separated query predicate names")
    p.add_argument("-all", dest="all_models", action="store_true",
                   help="list every stable model with its probability")
    p.add_argument("-hr", dest="relax_hard", action="store_true",
                   help="rank hard rules instead of enforcing them (debugging)")
    p.add_argument("-map", dest="map_mode", action="store_true",
                   help="force MAP inference (the default mode)")
    p.add_argument("-r", dest="output", metavar="FILE",
                   help="write output here instead of stdout")
    p.add_argument("-clingo", dest="clingo_opts", metavar="OPTS",
                   help="accepted for drop-in compatibility; ignored")
    p.add_argument("--mode", choices=["infer", "emit-asp-pnt", "emit-asp-rwd", "emit-mln"],
                   default="infer")
    p.add_argument("--scale", type=_decimal, default=inference.DEFAULT_SCALE,
                   help="integer scaling factor for weak-constraint weights")
    return p


def _decimal(text: str) -> int:
    """``text`` as an int if it is an ASCII decimal numeral, as in programs:
    ``int`` alone also reads ``3_0``, ``+3``, `` 3 `` and non-ASCII digits."""
    if re.fullmatch("-?[0-9]+", text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


# built once per process: building it costs a dozen times what parsing does
_PARSER = _build_parser()


def _fmt(p: float) -> str:
    return f"{p:.12g}"


def _byte_tables(items: list, join) -> list[_Memo]:
    """Per byte position of a bitset over ``items``, a memo from a non-zero
    byte value to the items of its set bits in bit order, joined pairwise
    by ``join``: a value is its lowest bit's item joined to the memoised
    value of the rest."""
    def table(chunk):
        def make(x):
            low = x & -x
            rest = x ^ low
            first = chunk[low.bit_length() - 1]
            return join(first, memo[rest]) if rest else first
        memo = _Memo(make)
        return memo
    return [table(items[p:p + 8]) for p in range(0, len(items), 8)]


def _spaced(a: str, b: str) -> str:
    return f"{a} {b}"


def _model_printer(gp, comp, scale: int, masks: list[int]):
    """The lines of a model of ``gp`` from its bitset over ``comp``'s atoms,
    its violation mask (one of ``masks``) and its soft total: its atoms,
    then the unsat markers of the rules it violates that it does not hold,
    each once, sorted; then its scaled penalty.  The violation mask gives
    the markers, so nothing is re-checked.

    Once per run: the markers of the rules in the union of ``masks`` only,
    deduplicated and sorted by ``(atom_sort_key, text)``; per byte of a
    violation mask, a memo to the bits of its markers in that order; and
    per byte of the atom bitset and of the marker bits, a memo to the
    joined text of its atoms or markers.  Per model: the bytes of its
    violation mask, then of its bitset and marker bits, looked up in those
    tables; the held test for the markers that occur in the program; and
    one join."""
    # _Compiled numbers atoms in atom_sort_key order, so bit order is print order
    union = 0
    for v in masks:
        union |= v
    marker_of = {r: asp_backend._marker_of(gp.rules[r], asp_backend.UNSAT)
                 for r in _bit_indices(union)}
    order = sorted(set(marker_of.values()), key=lambda m: (atom_sort_key(m), str(m)))
    bit = {m: 1 << j for j, m in enumerate(order)}  # a marker's bit in print order
    rule_bits = [0] * union.bit_length()
    for r, m in marker_of.items():
        rule_bits[r] = bit[m]
    to_markers = _byte_tables(rule_bits, or_)
    # a marker that occurs in the program prints only when the model does not hold it
    held = [(bit[m], 1 << comp.index[m]) for m in order if m in comp.index]
    atom_text = _byte_tables([str(a) for a in comp.atoms], _spaced)
    text = atom_text + _byte_tables([str(m) for m in order], _spaced)
    n_rule, n_atom, n_marker = len(to_markers), len(atom_text), len(text) - len(atom_text)

    def lines(b, violated, soft):
        on = 0
        for table, x in zip(to_markers, violated.to_bytes(n_rule, "little")):
            if x:
                on |= table[x]
        for j, a in held:
            if on & j and b & a:
                on ^= j
        frags = b.to_bytes(n_atom, "little") + on.to_bytes(n_marker, "little")
        return [" ".join([table[x] for table, x in zip(text, frags) if x]),
                f"Optimization: {inference._scaled(soft, scale)}"]
    return lines


def _render_map(gp, hard_mode: str, cap: int, scale: int) -> str:
    """The tied models only are read back from the enumeration."""
    w, tied, bits, masks = inference._map_models(gp, hard_mode, cap)
    show = _model_printer(gp, w.enum.comp, scale, masks)
    lines = [line for k, b, v in zip(tied, bits, masks) for line in show(b, v, w.soft[k])]
    return "".join(l + "\n" for l in lines + ["OPTIMUM FOUND"])


def _render_all(gp, hard_mode: str, cap: int, scale: int) -> str:
    w = inference._weigh_models(gp, "penalty", hard_mode, cap)
    masks = w.enum.violations
    show = _model_printer(gp, w.enum.comp, scale, masks)
    lines = []
    for k, (b, v, soft) in enumerate(zip(w.enum.models_bits(), masks, w.soft)):
        lines += [f"Answer: {k + 1}"] + show(b, v, soft)
    lines.append("")
    for k, p in enumerate(w.probabilities, start=1):
        lines.append(f"Probability of Answer {k} : {_fmt(p)}")
    return "".join(l + "\n" for l in lines)


def _render_marginal(gp, preds, hard_mode: str, cap: int, stderr) -> str:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = inference.marginal(gp, preds, "penalty", hard_mode, cap)
    for w in caught:
        print(f"warning: {w.message}", file=stderr)
    return "".join(f"{a} {_fmt(p)}\n" for a, p in result.items())


def run(argv, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    # strip "-clingo <opts>" up front: its value can look like an option,
    # which argparse refuses to swallow
    argv = list(argv)
    clingo_opts = None
    if "-clingo" in argv:
        at = argv.index("-clingo")
        tail = argv[at + 1:at + 2]
        clingo_opts = tail[0] if tail else ""
        del argv[at:at + 2]
    try:
        args = _PARSER.parse_args(argv)
        raw_cap = os.environ.get("LPMLN_ATOM_CAP", str(DEFAULT_ATOM_CAP))
        try:
            cap = _decimal(raw_cap)
        except argparse.ArgumentTypeError:
            raise ValueError(f"LPMLN_ATOM_CAP must be an integer, got {raw_cap!r}")
        if cap < 0:
            raise ValueError(f"LPMLN_ATOM_CAP must be a non-negative integer, got {raw_cap!r}")
        inference._check_scale(args.scale)
        hard_mode = "relaxed" if args.relax_hard else "strict"
        if clingo_opts is not None:
            print("warning: -clingo options are accepted but ignored", file=stderr)

        program = parse_program(Path(args.input).read_text(encoding="utf-8"))
        evidence = None
        if args.evidence:
            evidence = parse_evidence(Path(args.evidence).read_text(encoding="utf-8"))
        preds = parse_query_spec(args.query) if args.query is not None else None

        if args.mode == "emit-asp-pnt":
            tp = asp_backend.translate_penalty(program, args.scale,
                                               translate_hard=args.relax_hard)
            text = asp_backend.emit_asp_text(tp)
        elif args.mode == "emit-asp-rwd":
            text = asp_backend._reward_text(program, args.scale)
        elif args.mode == "emit-mln":
            mln = mln_backend.tseytin(mln_backend.complete(ground(program)))
            text = mln_backend.emit_mln_text(mln)
            if args.output and mln.aux_defs:
                Path(args.output + ".aux").write_text(
                    mln_backend.aux_mapping_text(mln), encoding="utf-8")
        else:
            merged = merge_programs(program, evidence) if evidence else program
            # penalty weighing: an instance that cannot fire is never violated
            gp = _ground_live(merged, query=preds or ())
            try:
                if args.map_mode or not (preds is not None or args.all_models):
                    text = _render_map(gp, hard_mode, cap, args.scale)
                elif preds is not None:
                    text = _render_marginal(gp, preds, hard_mode, cap, stderr)
                else:
                    text = _render_all(gp, hard_mode, cap, args.scale)
            except inference.NoStableModelsError:
                if evidence is None:
                    raise
                inference._blame_evidence(program, hard_mode, cap)
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
            return EXIT_OK
    except _Help:
        stdout.write(_PARSER.format_help())
        return EXIT_OK
    except (GroundingCapError, EnumerationCapError) as e:  # first: GroundingCapError is a ValueError
        print(f"error: {e}", file=stderr)
        return EXIT_CAP
    except inference.NoStableModelsError as e:
        print(f"error: {e}", file=stderr)
        return EXIT_UNSAT
    except (ValueError, OSError) as e:  # syntax, grounding, decoding and file errors
        print(f"error: {e}", file=stderr)
        return EXIT_INPUT
    stdout.write(text)
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
