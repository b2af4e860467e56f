"""Tier-1 smoke test of the benchmark: every workload and metric named in
``BENCHMARK.json`` still runs, is checked, and a wrong reference is caught.
Sizes are the real ones; only the loop counts shrink (``--smoke``)."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args):
    # Knobs the benchmark must not inherit: it measures a user's defaults.
    env = {**os.environ, "REPRO_BACKEND": "ref", "REPRO_VERIFY": "full"}
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *args],
        env=env, capture_output=True, text=True, timeout=170)


def test_smoke_reports_every_workload_and_metric(tmp_path):
    out = tmp_path / "smoke.json"
    proc = _run("--smoke", "--out", str(out), "--trace-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1

    result = json.loads(out.read_text())
    assert {"REPRO_BACKEND", "REPRO_VERIFY"} <= set(result["record"]["scrubbed_env"])
    (run,) = result["runs"]
    assert list(run) == [w["name"] for w in SPEC["workloads"]]
    for name, res in run.items():
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 5, name
        assert res["staged_equals_public"] is True, name
        assert (tmp_path / f"trace-{name}.json").exists()
        for kind in ("end_to_end", "per_layer"):
            assert {m["name"]: m["unit"] for m in SPEC[kind]} == {
                k: v["unit"] for k, v in res[kind].items()}, (name, kind)
        assert all(v["value"] > 0 for v in res["end_to_end"].values()), name
    assert run["kmeans_newton"]["per_layer"]["exec.strategy.generic"]["value"] >= 1
    assert run["lstm_grad"]["per_layer"]["exec.strategy.generic"]["value"] == 0
    assert run["compile_cold"]["per_layer"]["exec.cache.misses"]["value"] >= 9


def test_wrong_reference_fails_the_run(tmp_path):
    proc = _run("--smoke", "--workload", "gmm_grad", "--trace", "0", "--break-reference",
                "--trace-dir", str(tmp_path))
    assert proc.returncode != 0
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == last["attempted"] >= 1
