"""Record the SHA-256 of every CLI stdout the benchmark can ask for.

    PYTHONHASHSEED=0 PYTHONPATH=src python3 perfbench/record_digests.py

Run from the root of a checkout whose CLI output is trusted: the digests
pin ROADMAP's byte-identical-output invariant, and any later difference
counts as a failed op.  Each output must also pass its engine-independent
check before its digest is written.
"""

import hashlib
import json
import shutil
import sys

import lpmln
import lpmln.cli  # noqa: F401
from workloads import DIGESTS, ROOT, check, every_cli_op, prepare, references, run_op


def main() -> int:
    rnd = every_cli_op()
    workdir = ROOT / ".perfbench" / "record-digests"
    try:
        argvs = prepare(rnd, workdir)
        refs = references(rnd)
        digests = {}
        for op, argv, ref in zip(rnd.ops, argvs, refs):
            code, output = run_op(op, argv, lpmln)
            digest = hashlib.sha256(output.encode("utf-8")).hexdigest()
            why = check(op, code, output, ref, {op.key: digest})
            if why:
                print(f"{op.key}: {why}", file=sys.stderr)
                return 1
            digests[op.key] = digest
            print(op.key, digest[:16], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n",
                       encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
