#!/usr/bin/env python3
"""Check that two checkouts of qnarayana print the same bytes.

Runs the standing byte-identity set with each checkout's ``src`` on the
path, and diffs the outputs: the 21 default-sweep reports (seven statement
ids in text, jsonl and csv); each id once more under forked workers,
``verify gjz --jobs 2``, ``verify conj33 --jobs 2 --format jsonl``,
``verify thm12 --jobs 2 --format csv`` (heads of several j), ``verify thm11
--jobs 2 --format jsonl`` (heads of one case), ``verify conj31 --jobs 2
--format jsonl``, ``verify conj32 --jobs 2 --format csv`` and ``verify
conj34 --jobs 2 --format csv`` (heads of several f); ``sum gjz --ns
12,9,12,9`` for j = 0..3, ``sum cyclic --ns 9,9 --f 0,-2,0,0,1`` and
``proof --n 12 --r 3 --j 5``.  Four more reach ratio paths of (1 - q^t)
factors that those miss: ``qcatalan 60`` (q_catalan's own ratio),
``qnarayana 61 30`` (the q-Narayana row), ``proof --n 8 --r 4 --j 7`` (a
cyclic modulus with repeated factors, at the last claimed j) and ``verify
conj33 --m 1..2 --ni-max 3 --j-max 7`` (j beyond the claimed range, where
quotients go negative).  Two reach the values that classes of chains
share: ``verify gjz --m 1..3 --ni-max 4 --j-max 5 --jobs 2 --format csv``
(a chain and its reverse share each gjz value, at j beyond the claim too)
and ``verify conj34 --m 3..3 --ni-max 3 --f-suite "0,0,0,1;0,-1,0,0,1"``
(rotations share their per-k products but not their shifts).  Two reach
the integer statements where the default grids stop: ``verify thm11 --n
13..16 --r 1..3 --format jsonl`` (n on both sides of the default grid's
edge at 14) and ``verify conj31 --m 4..4 --ni-max 3 --format csv`` (chains
of length 4, longer than the default grid's).  Three reach paths no
default sweep takes: ``sum thm12 --n 16 --r 2 --j 3`` (a q-Narayana row
stepped twice per entry, past the default grid), ``qbinom 100 52`` (the
Gaussian-binomial table's reflection to k = 48) and ``verify conj33 --ns
2,3,1 --format jsonl`` (an explicit chain, echoed and expanded as given).
Seven are sweeps the option checks refuse, each with its own message:
``verify thm12 --ns 1``, ``verify conj31 --n 1..2``, ``verify conj31
--j-max 2``, ``verify gjz --f-suite 0``, ``verify conj34 --ns 1 --ni-max
3``, ``verify thm12 --j-max -1`` and ``verify thm12 --n 5..1 --r 1`` (a
reversed range).  That is 52 commands.
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
    ["verify", "conj33", "--jobs", "2", "--format", "jsonl"],
    ["verify", "thm12", "--jobs", "2", "--format", "csv"],
    ["verify", "thm11", "--jobs", "2", "--format", "jsonl"],
    ["verify", "conj31", "--jobs", "2", "--format", "jsonl"],
    ["verify", "conj32", "--jobs", "2", "--format", "csv"],
    ["verify", "conj34", "--jobs", "2", "--format", "csv"],
    *(["sum", "gjz", "--ns", "12,9,12,9", "--j", str(j)] for j in range(4)),
    ["sum", "cyclic", "--ns", "9,9", "--f", "0,-2,0,0,1"],
    ["proof", "--n", "12", "--r", "3", "--j", "5"],
    ["qcatalan", "60"],
    ["qnarayana", "61", "30"],
    ["proof", "--n", "8", "--r", "4", "--j", "7"],
    ["verify", "conj33", "--m", "1..2", "--ni-max", "3", "--j-max", "7"],
    ["verify", "gjz", "--m", "1..3", "--ni-max", "4", "--j-max", "5", "--jobs", "2",
     "--format", "csv"],
    ["verify", "conj34", "--m", "3..3", "--ni-max", "3", "--f-suite", "0,0,0,1;0,-1,0,0,1"],
    ["verify", "thm11", "--n", "13..16", "--r", "1..3", "--format", "jsonl"],
    ["verify", "conj31", "--m", "4..4", "--ni-max", "3", "--format", "csv"],
    ["sum", "thm12", "--n", "16", "--r", "2", "--j", "3"],
    ["qbinom", "100", "52"],
    ["verify", "conj33", "--ns", "2,3,1", "--format", "jsonl"],
    ["verify", "thm12", "--ns", "1"],
    ["verify", "conj31", "--n", "1..2"],
    ["verify", "conj31", "--j-max", "2"],
    ["verify", "gjz", "--f-suite", "0"],
    ["verify", "conj34", "--ns", "1", "--ni-max", "3"],
    ["verify", "thm12", "--j-max", "-1"],
    ["verify", "thm12", "--n", "5..1", "--r", "1"],
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
