#!/usr/bin/env python3
"""Census-pipeline benchmark: one command, four workloads, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census8-minimal --seed 1 \
        --seconds 10 --trace 0 [--out BENCH_label.json]

Each run starts its workload in a fresh interpreter on whatever backend
ladget picks here (``ladget.BACKEND``), prints every metric by name and
unit, the environment stamp and the share of failed output checks, and ends
with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the repetitions that
fit in --seconds; set-up is timed in five fresh interpreters).  --trace 1
reports per-layer metrics from a traced run (see tracer.py).  The exit code
is 0 when every check passes, 1 when one fails, 2 when the run could not be
made at all (no ladget sources or stream in this directory, a child that
crashed or overran).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads

ROOT = workloads.ROOT
CHILD = Path(workloads.__file__).resolve()
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "configs_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class RunFailed(Exception):
    """The workload could not be run to the end."""


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def spawn(spec: dict, deadline: float) -> tuple[float, dict | None]:
    """Run one child.  Returns (set-up seconds, result or None in setup
    mode).  The child and its workers are killed at the deadline."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(workloads.SRC), env.get("PYTHONPATH")) if p)
    # Scratch inputs (windows, checkpoints) stay inside the checkout and are
    # removed here, even when the child had to be killed.
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(spec), tmp],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(tmp, ignore_errors=True)
    if first.strip() != "ready" or code != 0:
        raise RunFailed(f"{spec['workload']} child ({spec['mode']}) exited "
                        f"with code {code}")
    if spec["mode"] == "setup":
        return setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise RunFailed(f"{spec['workload']} child printed no result")
    return setup_s, json.loads(lines[-1])


def end_to_end(result: dict, setups: list) -> dict:
    reps = result["reps"]
    wall = statistics.median(r["wall_s"] for r in reps)
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "configs_per_s": reps[0]["configs"] / wall,
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    spec = workloads.make_spec(workload, seed, seconds,
                               "trace" if trace else "measure")
    setup_s, result = spawn(spec, deadline)
    if trace:
        units = dict(workloads.PER_LAYER)
        values = result["metrics"]
    else:
        setups = [setup_s] + [
            spawn(dict(spec, mode="setup"), deadline)[0]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        units = END_TO_END_UNITS
        values = end_to_end(result, setups)
    failed = [name for name, ok in result["checks"] if not ok]
    return {
        "workload": workload,
        "trace": int(trace),
        "env": dict(result["env"], commit=git_commit(), seed=seed,
                    inputs=result["inputs"]),
        "attempted": len(result["checks"]),
        "failed_checks": failed,
        "reps": len(result.get("reps", [])),
        "verify_samples": result.get("verify_samples"),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def report(res: dict) -> None:
    print(f"perfbench {res['workload']} seed={res['env']['seed']} "
          f"trace={res['trace']} reps={res['reps']} "
          f"verify_samples={res['verify_samples']}")
    for name, m in res["metrics"].items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")
    attempted, failed = res["attempted"], len(res["failed_checks"])
    print(f"  {'fail_ratio':42s} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} checks failed)")
    for name in res["failed_checks"]:
        print(f"  FAILED CHECK {name}", file=sys.stderr)
    print("env " + json.dumps(res["env"], sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", help="also write the stamped result here")
    args = ap.parse_args(argv)

    missing = [p for p in (workloads.SRC / "ladget" / "__init__.py",
                           workloads.STREAM8) if not p.is_file()]
    if missing:
        print(f"perfbench: not a ladget checkout, missing "
              f"{', '.join(str(p.relative_to(ROOT)) for p in missing)}",
              file=sys.stderr)
        return 2
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(res)
    if args.out:
        Path(args.out).write_text(json.dumps(res, indent=1) + "\n",
                                  encoding="utf-8")
    failed = len(res["failed_checks"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": res["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # A terminated run still stops its child (see spawn's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
