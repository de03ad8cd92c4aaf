"""Every output the benchmark pins in perfbench/references.json is still
produced: each workload sweep in csv and jsonl and each single value in
text, run in-process through cli.main and compared by the benchmark's own
digest and exit code."""

import importlib.util
import itertools
from pathlib import Path

import pytest

from qnarayana.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

_spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

REFERENCES = workloads.load_references()
COMMANDS = [
    *itertools.chain.from_iterable(workloads.SWEEPS.values()),
    *itertools.chain.from_iterable(workloads.LARGE_VALUE_SLOTS),
]


def test_every_reference_is_covered():
    assert sorted(map(workloads.key, COMMANDS)) == sorted(REFERENCES)


@pytest.mark.parametrize("command", COMMANDS, ids=workloads.key)
def test_output_matches_reference(command, capsys):
    reference = REFERENCES[workloads.key(command)]
    formats = ("csv", "jsonl") if command[0] == "verify" else ("text",)
    for fmt in formats:
        code = main([*command, "--format", fmt])
        out = capsys.readouterr().out.encode("utf-8")
        assert (code, workloads.digest(fmt, out)) == (reference["exit"], reference[fmt]), fmt
