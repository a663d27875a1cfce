"""repart benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload wide --seed 0 --seconds 26 --trace 0

Run from the root of a checkout. The last line of standard output is
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.
The lines before it give the provenance of the run and the same numbers
under the names of the operations they time. See perfbench/README.md.

Every piece of work runs in a child process, one after another: set-up
probes that each import repart cold, then one timed or traced worker.
A call into the library that exceeds CAP_S counts as a failed run.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("wide", "chase", "grid", "oracle")

SETUP_PROBES = 5
CAP_S = 45.0          # wall-clock cap on one call into the library
DEADLINE_S = 170.0    # the whole run, set-up probes included


def provenance(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repart").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "git_commit": commit, "src_sha256": src.hexdigest()[:16],
            "loadavg_start": list(os.getloadavg())}


class WorkerFailed(Exception):
    pass


def worker(task: dict, timeout: float) -> dict:
    """Run one child process to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(task)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=max(timeout, 1.0),
            text=True)
    except subprocess.TimeoutExpired:
        raise WorkerFailed("%s worker exceeded %.0fs" % (task["mode"], timeout))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed("%s worker exited with %d" % (task["mode"], proc.returncode))
    return json.loads(lines[-1])


def end_to_end(args, deadline) -> tuple:
    """(metrics, detail lines, attempted, failed, errors) of a timed run."""
    task = {"workload": args.workload, "seed": args.seed}
    worker(dict(task, mode="setup"), deadline - time.monotonic())  # writes .pyc
    setups = [worker(dict(task, mode="setup"), deadline - time.monotonic())
              for _ in range(SETUP_PROBES)]
    run = worker(dict(task, mode="measure", seconds=args.seconds, cap_s=CAP_S),
                 deadline - time.monotonic())
    setup_s = statistics.median(p["setup_s"] for p in setups)
    metrics = {"setup_s": setup_s,
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_CHILDREN).ru_maxrss / 1024}
    detail = ["setup_s %.4f s: median of %d cold probes, %.4f s unscaled"
              % (setup_s, len(setups),
                 statistics.median(p["unscaled_s"] for p in setups))]
    for role, (op, rounds) in zip(("baseline", "subject"), run["ops"].items()):
        name = role + "_us_per_req"
        if not rounds:
            metrics[name] = None
            continue
        scaled, requests = (sum(col) for col in zip(*(r[:2] for r in rounds)))
        metrics[name] = scaled / requests * 1e6
        detail.append("%s %.2f us: %s, %d rounds, %d requests"
                      % (name, metrics[name], op, len(rounds), requests))
        if args.workload != "oracle":
            detail.append("%s_steps_per_s %.1f 1/s" % (op, requests / scaled))
            continue
        for label in rounds[0][2]:
            solve = statistics.median(per_case[label] for *_, per_case in rounds)
            detail.append("%s_oracle_s %.4f s: cold solve on %s"
                          % (op, solve, label))
    attempted, failed = run["attempted"], run["failed"]
    detail.append("fail_share %.4f (%d of %d runs failed)"
                  % (failed / max(attempted, 1), failed, attempted))
    detail.append("rounds " + json.dumps(run))
    return metrics, detail, attempted, failed, run["errors"]


def per_layer(args, deadline) -> tuple:
    run = worker({"workload": args.workload, "seed": args.seed, "mode": "trace",
                  "cap_s": CAP_S}, deadline - time.monotonic())
    return (run["layers"], [], run["attempted"], run["failed"], run["errors"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "repart" / "__init__.py").is_file() or not SPEC.is_file():
        print("error: run from a repart checkout: src/repart or BENCHMARK.json"
              " is missing under %s" % ROOT, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"provenance": provenance(args)}))
    try:
        measured, detail, attempted, failed, errors = (
            per_layer if args.trace else end_to_end)(args, deadline)
    except WorkerFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    for line in detail:
        print(line)
    for err in errors:
        print("failed: " + err, file=sys.stderr)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = failed == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
