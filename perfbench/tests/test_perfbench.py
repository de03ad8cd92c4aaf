"""Self-test of the benchmark on a scaled-down grid.

    python3 -m pytest perfbench/tests -q

It shows that the checks notice a corrupted report byte, a wrong exit
code, an output breaking the integer oracle and a child over the memory
cap, and that a traced run reproduces the untraced outputs.
"""

import dataclasses
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SWEEP = ("verify", "thm12", "--n", "1..2", "--r", "1..2")
VALUES = (
    ("qbinom", "6", "3"),
    ("sum", "gjz", "--ns", "2,1", "--j", "1"),
    ("proof", "--n", "1", "--r", "2", "--j", "0"),
)


class TamperingRunner(run.Runner):
    """A runner that passes every finished child through `tamper`."""

    def __init__(self, work, tamper=lambda child: child):
        super().__init__(work, time.monotonic() + 120)
        self.tamper = tamper

    def qnarayana(self, command, fmt, jobs):
        return self.tamper(super().qnarayana(command, fmt, jobs))


@pytest.fixture(scope="module")
def refs(tmp_path_factory):
    """References pinned from a clean run of the scaled-down commands."""
    runner = run.Runner(tmp_path_factory.mktemp("pin"), time.monotonic() + 120)
    ref = {"cases": 0, "failed_cases": 0}
    for fmt in ("jsonl", "csv"):
        child = runner.qnarayana(SWEEP, fmt, 1)
        ref["exit"], ref[fmt] = child.exit, wl.digest(fmt, child.out)
        if fmt == "jsonl":
            records = child.out.splitlines()
            ref["cases"] = sum(1 for line in records if line.startswith(b'{"statement"'))
    pinned = {wl.key(SWEEP): ref}
    for command in VALUES:
        child = runner.qnarayana(command, "text", 1)
        pinned[wl.key(command)] = {"exit": child.exit, "text": wl.digest("text", child.out)}
    return pinned


def tally_of(runner, refs, fmt="jsonl", jobs=1):
    tally = run.Tally()
    run.run_pass(runner, [SWEEP], fmt, jobs, refs, tally)
    run.run_pass(runner, list(VALUES), "text", jobs, refs, tally)
    return tally


def flip_middle_byte(child):
    out = bytearray(child.out)
    out[len(out) // 2] ^= 1
    return dataclasses.replace(child, out=bytes(out))


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_clean_outputs_fail_nothing_at_any_jobs(tmp_path, refs, fmt):
    for jobs in (1, 2):
        tally = tally_of(TamperingRunner(tmp_path), refs, fmt, jobs)
        assert tally.failed_share == 0, tally.problems
        assert tally.attempted == refs[wl.key(SWEEP)]["cases"] + len(VALUES)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_corrupted_report_byte_raises_failed_share(tmp_path, refs, fmt):
    tally = tally_of(TamperingRunner(tmp_path, flip_middle_byte), refs, fmt)
    assert tally.failed == tally.attempted
    assert "differs from the pinned reference" in tally.problems[0]


def test_wrong_exit_code_raises_failed_share(tmp_path, refs):
    tally = tally_of(TamperingRunner(tmp_path, lambda c: dataclasses.replace(c, exit=2)), refs)
    assert tally.failed_share == 1.0
    assert "exit 2, expected 0" in tally.problems[0]


def test_oracle_rejects_a_wrong_value(tmp_path, refs):
    runner = run.Runner(tmp_path, time.monotonic() + 60)
    for command in VALUES:
        child = runner.qnarayana(command, "text", 1)
        assert wl.oracle_holds(command, child.out.decode())
    assert not wl.oracle_holds(VALUES[0], "q^9 + q^8 + 1\n")
    # The pinned digest alone would also catch this; drop it to reach the oracle.
    unpinned = dict(refs[wl.key(VALUES[0])], text=wl.digest("text", b"q^9 + 1\n"))
    failed, problem = run.failures(dataclasses.replace(child, command=VALUES[0], out=b"q^9 + 1\n"),
                                   "text", unpinned)
    assert failed == 1 and "integer route" in problem


def test_memory_cap_fails_the_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MEMORY_CAP", 96 << 20)
    child = run.Runner(tmp_path, time.monotonic() + 60).qnarayana(("qcatalan", "60"), "text", 1)
    failed, problem = run.failures(child, "text", {"exit": 0, "text": ""})
    assert failed == 1 and problem.startswith("exit 1, expected 0: ")


@pytest.mark.parametrize("commands", [[SWEEP], list(VALUES)], ids=["sweep", "values"])
def test_traced_run_reproduces_outputs_and_counts_every_layer(tmp_path, refs, commands):
    tally = run.Tally()
    runner = run.Runner(tmp_path, time.monotonic() + 120)
    metrics, problems = run.trace(runner, commands, refs, tally)
    assert tally.failed == 0, tally.problems
    # Sweeps run untraced at both jobs values and once traced; single values,
    # which ignore --jobs, skip the --jobs N pass.
    runs = sum((3 if run.is_sweep(c) else 2) * run.operations(c, refs) for c in commands)
    assert tally.attempted == runs
    assert problems == []
    assert metrics["polyarith.mul_calls"][0] > 0
    if commands == [SWEEP]:
        assert metrics["verify.cases"][0] == refs[wl.key(SWEEP)]["cases"]
        assert metrics["cli.emit_csv_s"][0] > 0
    else:
        assert metrics["sums.gjz_calls"][0] == 1
        assert metrics["polyarith.bezout_s"][0] > 0


def test_single_values_run_once_per_pair_and_count_at_both_jobs(tmp_path, refs):
    tally = run.Tally()
    commands = [SWEEP, VALUES[0]]
    walls, passes = run.measure(TamperingRunner(tmp_path), commands, refs, 0, tally)
    assert passes == {"one": 2, "par": 2}
    assert tally.failed == 0, tally.problems
    assert tally.attempted == 4 * refs[wl.key(SWEEP)]["cases"] + 2
    assert walls["par"][VALUES[0]] == walls["one"][VALUES[0]]
    assert walls["par"][SWEEP] != walls["one"][SWEEP]


def test_traced_counts_repeat_exactly(tmp_path, refs):
    counts = []
    for _ in range(2):
        runner = run.Runner(tmp_path, time.monotonic() + 120)
        metrics, _ = run.trace(runner, [SWEEP, *VALUES], refs, run.Tally())
        counts.append({name: value for name, (value, unit) in metrics.items()
                       if unit in ("count", "bits", "bytes")})
    assert counts[0] == counts[1]
    assert counts[0]["cli.report_bytes"] > 0
