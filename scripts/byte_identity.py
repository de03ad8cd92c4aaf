#!/usr/bin/env python3
"""Check that two checkouts of qnarayana print the same bytes.

Runs the standing byte-identity set with each checkout's ``src`` on the
path, and diffs the outputs: the 21 default-sweep reports (seven statement
ids in text, jsonl and csv), ``verify gjz --jobs 2``, ``sum gjz --ns
12,9,12,9`` for j = 0..3, ``sum cyclic --ns 9,9 --f 0,-2,0,0,1`` and
``proof --n 12 --r 3 --j 5``.  Four more reach ratio paths of (1 - q^t)
factors that those miss: ``qcatalan 60`` (q_catalan's own ratio),
``qnarayana 61 30`` (the q-Narayana row), ``proof --n 8 --r 4 --j 7`` (a
cyclic modulus with repeated factors, at the last claimed j) and ``verify
conj33 --m 1..2 --ni-max 3 --j-max 7`` (j beyond the claimed range, where
quotients go negative).  Six are sweeps the option checks refuse, each with
its own message: ``verify thm12 --ns 1``, ``verify conj31 --n 1..2``,
``verify conj31 --j-max 2``, ``verify gjz --f-suite 0``, ``verify conj34
--ns 1 --ni-max 3`` and ``verify thm12 --j-max -1``.  That is 38 commands.
Each output is compared with its exit code and its stderr; the
``# generated:`` line and the jsonl meta line, which hold the timestamp
and wall time, are removed first.

    python scripts/byte_identity.py BEFORE_CHECKOUT AFTER_CHECKOUT

Exits 0 when every command matches, and 1 after printing a unified diff of
each that does not.
"""

import difflib
import os
import subprocess
import sys
from pathlib import Path

STATEMENT_IDS = ("thm11", "thm12", "gjz", "conj31", "conj32", "conj33", "conj34")

COMMANDS = [
    *(["verify", name, "--format", fmt] for name in STATEMENT_IDS for fmt in ("text", "jsonl", "csv")),
    ["verify", "gjz", "--jobs", "2"],
    *(["sum", "gjz", "--ns", "12,9,12,9", "--j", str(j)] for j in range(4)),
    ["sum", "cyclic", "--ns", "9,9", "--f", "0,-2,0,0,1"],
    ["proof", "--n", "12", "--r", "3", "--j", "5"],
    ["qcatalan", "60"],
    ["qnarayana", "61", "30"],
    ["proof", "--n", "8", "--r", "4", "--j", "7"],
    ["verify", "conj33", "--m", "1..2", "--ni-max", "3", "--j-max", "7"],
    ["verify", "thm12", "--ns", "1"],
    ["verify", "conj31", "--n", "1..2"],
    ["verify", "conj31", "--j-max", "2"],
    ["verify", "gjz", "--f-suite", "0"],
    ["verify", "conj34", "--ns", "1", "--ni-max", "3"],
    ["verify", "thm12", "--j-max", "-1"],
]

VARYING = ("# generated:", '{"meta":')


def run(checkout, args):
    """The exit code, stdout and stderr of one command, as lines."""
    env = {**os.environ, "PYTHONPATH": str(Path(checkout, "src").resolve())}
    done = subprocess.run([sys.executable, "-m", "qnarayana", *args],
                          env=env, capture_output=True, text=True, check=False)
    stdout = [line for line in done.stdout.splitlines(keepends=True) if not line.startswith(VARYING)]
    return [f"exit {done.returncode}\n", *stdout, "-- stderr --\n", *done.stderr.splitlines(keepends=True)]


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    before, after = argv
    mismatches = 0
    for args in COMMANDS:
        command = " ".join(args)
        diff = list(difflib.unified_diff(run(before, args), run(after, args),
                                         f"{before}: {command}", f"{after}: {command}"))
        print(f"{'DIFFERS' if diff else 'same   '}  {command}", flush=True)
        sys.stdout.writelines(diff)
        mismatches += bool(diff)
    print(f"{len(COMMANDS) - mismatches} of {len(COMMANDS)} commands identical")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
