"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import worker
import workloads

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _spec():
    with open(BENCHMARK, encoding="utf-8") as fh:
        return json.load(fh)


def _bench(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def _in_process_worker(mode, args, extra=()):
    argv = [mode, "--workload", args.workload, "--seed", str(args.seed), *extra]
    if args.tiny:
        argv.append("--tiny")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert worker.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_wrong_expected_value_counts_as_failed_not_a_crash(monkeypatch, capsys):
    monkeypatch.setattr(run, "run_worker", _in_process_worker)
    monkeypatch.setitem(workloads.KNOWN["levi_civita"], "zeros", 104)
    assert run.main(["--workload", "tower", "--seed", "3", "--seconds", "0",
                     "--trace", "0", "--tiny"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert 1 <= result["failed"] < result["attempted"]
    assert result["metrics"]["pass_share"]["value"] < 1
    assert any("levi_civita" in ln and "known 104" in ln for ln in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCHMARK, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    proc = _bench("--workload", "tower", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
