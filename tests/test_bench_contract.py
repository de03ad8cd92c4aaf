"""The per-layer benchmark's tracer still finds the spans it reports.

perfbench/traced_cli.py wraps qnarayana functions by name; a renamed or
removed function would silently drop its span from the benchmark.  This
runs the tracer on two small commands and checks the spans and cache
counters it depends on.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def traced(command, tmp_path):
    trace = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(trace), *command],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(trace.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", [
    ["proof", "--n", "2", "--r", "3", "--j", "1"],
    ["verify", "gjz", "--m", "1..1", "--ni-max", "2", "--format", "csv"],
])
def test_traced_cli_reports_layers(command, tmp_path):
    record = traced(command, tmp_path)
    for span in ("polyarith.bezout", "verify.proof", "qobjects.qsf"):
        assert span in record["spans"]
    assert set(record["qbinom_cache"]) == {"hits", "misses", "entries"}


def test_power_sum_sweep_reaches_the_qobjects_layer(tmp_path):
    # The benchmark's traced run reports a layer with no recorded call as a
    # problem; a thm12 sweep builds its rows only through narayana_powers,
    # which reaches the traced q_narayana once per row.
    record = traced(["verify", "thm12", "--n", "1..2", "--r", "1..2"], tmp_path)
    assert record["spans"]["qobjects.narayana"][0] == 4
