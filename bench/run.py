#!/usr/bin/env python3
"""The repo's benchmark: ``python3 bench/run.py``.

Runs the workloads named in ``BENCHMARK.json`` through the public API on the
default backend, one fresh child interpreter at a time (closed loop, one
client, one thread), prints every metric by name and unit, checks every
result against an independent reference, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  See ``bench/README.md``.

    python3 bench/run.py                      # all workloads, both passes
    python3 bench/run.py --workload gmm_grad --seed 3 --seconds 15 --trace 0
    python3 bench/run.py --runs 3 --out A.json
    python3 bench/run.py --compare A.json B.json
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Loop sizes.  ``full`` is what the numbers come from; ``smoke`` only
#: proves every workload and metric still runs (tier-1 test budget).
SIZES = {
    "full": {"warmup": 10, "min_ops": 100, "cold_rounds": 3, "trace_reps": 30,
             "cold_trace_reps": 10, "setup_children": 4},
    "smoke": {"warmup": 0, "min_ops": 5, "cold_rounds": 1, "trace_reps": 2,
              "cold_trace_reps": 1, "setup_children": 0},
}


def child_env():
    """The defaults a user gets: every ``REPRO_*`` knob removed (pytest and
    CI set some process-wide), BLAS pinned to one thread."""
    scrubbed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items() if k not in scrubbed}
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env, scrubbed


def run_child(cfg: dict, env: dict) -> dict:
    cfg = {**cfg, "spawned_unix": time.time()}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), json.dumps(cfg)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{cfg['workload']}: child failed\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, args, spec: dict, env: dict) -> dict:
    size = SIZES["smoke" if args.smoke else "full"]
    cfg = {
        **size, "workload": name, "seed": args.seed, "setup_only": False,
        "untraced": args.trace in ("0", "both"), "traced": args.trace in ("1", "both"),
        "seconds": args.seconds, "ops": args.ops,
        "break_reference": args.break_reference,
        "trace_file": str(Path(args.trace_dir) / f"trace-{name}.json"),
    }
    setups = [run_child({**cfg, "setup_only": True}, env)["setup_s"]
              for _ in range(size["setup_children"])]
    res = run_child(cfg, env)
    setups.append(res["setup_s"])

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    out = {"workload": name, "correct": all(res["gate"].values()), "gate": res["gate"],
           "attempted": 0, "failed": 0, "setup_samples_s": setups,
           "build_and_first_call_s": res["build_and_first_call_s"], "numpy": res["numpy"],
           "end_to_end": {}, "per_layer": {}}
    if "untraced" in res:
        un = res["untraced"]
        out.update(attempted=un["attempted"], failed=un["failed"], info=un["info"],
                   timed_loop_cache=un["cache"])
        out["correct"] &= un["failed"] == 0
        out["end_to_end"] = {"setup_s": median(setups), **un["metrics"]}
    if cfg["traced"]:
        tr = res.get("traced")
        out["correct"] &= tr is not None
        if tr is not None:
            out["per_layer"] = tr["metrics"]
            out.update(staged_equals_public=tr["staged_equals_public"],
                       spans=tr["spans"], trace_file=tr["trace_file"])
    for kind in ("end_to_end", "per_layer"):
        want = {m["name"] for m in spec[kind]} if out[kind] else set()
        if set(out[kind]) != want:
            raise RuntimeError(f"{name}: {kind} metrics differ from BENCHMARK.json: "
                               f"{sorted(set(out[kind]) ^ want)}")
        out[kind] = {k: {"value": out[kind][k], "unit": units[k]} for k in sorted(out[kind])}
    if not out["attempted"]:  # traced-only run: the gated first results
        out["attempted"] = len(res["gate"])
        out["failed"] = sum(not ok for ok in res["gate"].values())
    return out


def git_commit():
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def run_record(args, scrubbed, numpy_version) -> dict:
    return {
        "git_commit": git_commit(), "seed": args.seed, "seconds": args.seconds,
        "ops": args.ops, "smoke": args.smoke, "trace": args.trace,
        "sizes": SIZES["smoke" if args.smoke else "full"],
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "thread_pins": THREAD_PINS,
        "scrubbed_env": scrubbed, "unix_time": time.time(),
    }


def print_workload(res: dict) -> None:
    print(f"\n== {res['workload']}  correct={res['correct']}  "
          f"attempted={res['attempted']} failed={res['failed']}")
    for kind in ("end_to_end", "per_layer"):
        for name, m in res[kind].items():
            print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    if "info" in res:
        info = res["info"]
        print(f"  (not gated: step_ms_p90 {info['step_ms_p90']:.2f} ms over n={res['attempted']}; "
              f"wall-clock step p50 {info['raw_step_ms_p50']:.2f} ms, "
              f"p90 {info['raw_step_ms_p90']:.2f} ms, {info['raw_steps_per_s']:.2f} steps/s; "
              f"machine slowdown {info['machine_slowdown_x']:.2f}x)")


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------


def _is_exact(metric: dict) -> bool:
    """Layer metrics that are counts (or ratios of counts): two runs of one
    commit and seed must agree on them to the digit."""
    return metric["unit"] in ("count", "bytes") or (
        metric["unit"] == "ratio" and metric["name"].startswith("core."))


def _spread(values) -> float:
    """Interquartile range over the median (range over median below 4 runs)."""
    if len(values) < 2:
        return 0.0
    q = quantiles(values, n=4) if len(values) >= 4 else (min(values), None, max(values))
    return (q[2] - q[0]) / abs(median(values))


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """B against A, per workload and end-to-end metric: ``ok``, ``regressed``
    (worse by more than the bound) or ``unresolved`` (either side's
    run-to-run spread is wider than the bound)."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    regressed = mismatched = 0
    print(f"{'workload':14s} {'metric':14s} {'A':>12s} {'B':>12s} {'worse by':>9s} "
          f"{'bound':>6s} {'spread A/B':>13s}  verdict")
    for w in spec["workloads"]:
        runs = [[r[w["name"]] for r in f["runs"] if w["name"] in r] for f in (a, b)]
        if not all(runs):
            continue
        for m in spec["end_to_end"]:
            va, vb = ([r["end_to_end"][m["name"]]["value"] for r in rs] for rs in runs)
            ma, mb = median(va), median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            sa, sb = _spread(va), _spread(vb)
            if max(sa, sb) > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "regressed"
                regressed += 1
            else:
                verdict = "ok"
            print(f"{w['name']:14s} {m['name']:14s} {ma:12.4f} {mb:12.4f} {worse:+9.1%} "
                  f"{m['bound']:6.0%} {sa:6.1%}/{sb:6.1%}  {verdict}")
        if a["record"]["seed"] == b["record"]["seed"]:
            la, lb = (rs[0]["per_layer"] for rs in runs)
            for name in (m["name"] for m in spec["per_layer"] if _is_exact(m)):
                if name in la and name in lb and la[name]["value"] != lb[name]["value"]:
                    mismatched += 1
                    print(f"{w['name']:14s} count {name} differs: "
                          f"{la[name]['value']} vs {lb[name]['value']}")
    print(f"\n{regressed} regressed, {mismatched} count metrics differ")
    return 1 if regressed or mismatched else 0


# ---------------------------------------------------------------------------


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names,
                    help="run only this workload (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=0, help="datagen seed (default 0)")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="length of the timed loop of the untraced pass")
    ap.add_argument("--ops", type=int, help="time exactly this many ops instead of --seconds")
    ap.add_argument("--trace", choices=("0", "1", "both"), default="both",
                    help="0: untraced pass (end-to-end metrics); 1: traced pass "
                         "(per-layer metrics); default both")
    ap.add_argument("--smoke", action="store_true",
                    help="5 ops per workload, both passes, workloads side by side")
    ap.add_argument("--runs", type=int, default=1, help="repeat the whole measurement")
    ap.add_argument("--out", help="write the run record and every run's metrics here")
    ap.add_argument("--trace-dir", default=str(BENCH / "out"),
                    help="where trace-<workload>.json goes (default bench/out)")
    ap.add_argument("--break-reference", action="store_true",
                    help="self-test: perturb the references; the run must fail")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare, spec)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.smoke:
        args.ops = args.ops or 5
    workloads = args.workload or names
    env, scrubbed = child_env()

    runs = []
    for _ in range(args.runs):
        # Timing runs go one at a time; the smoke run only checks presence,
        # so it uses every core and starts the longest workload (the last) first.
        with ThreadPoolExecutor(max_workers=(os.cpu_count() or 1) if args.smoke else 1) as pool:
            order = reversed(workloads) if args.smoke else workloads
            futures = {w: pool.submit(run_workload, w, args, spec, env) for w in order}
            results = [futures[w].result() for w in workloads]
        for res in results:
            print_workload(res)
        runs.append({res["workload"]: res for res in results})
    if args.out:
        Path(args.out).write_text(
            json.dumps({"record": run_record(args, scrubbed, results[0]["numpy"]), "runs": runs},
                       indent=1) + "\n")

    last = runs[-1]
    single = len(workloads) == 1 and args.trace != "both"
    metrics = {}
    for w, res in last.items():
        for kind in ("end_to_end", "per_layer"):
            for name, m in res[kind].items():
                metrics[name if single else f"{w}/{name}"] = m
    every = [res for run in runs for res in run.values()]
    correct = all(res["correct"] for res in every)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(res["attempted"] for res in every),
        "failed": sum(res["failed"] for res in every),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
