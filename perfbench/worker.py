"""One benchmark process: a set-up probe, a timed run or a traced run.

Started by run.py as `python3 perfbench/worker.py '<json task>'`, it imports
repart from the checkout's src/ and prints one JSON object as its last line.
"""

import hashlib
import json
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Median seconds of one calibration slice on the host this benchmark was
# written on; scaled times read as seconds on a host of that speed.
CALIBRATION_REF_S = 0.001
# CPU seconds between two calibration slices inside a timed call.
SLICE_INTERVAL_S = 0.02
_SLICE_NODES = tuple(v // 2 for v in range(512))
_SLICE_TEXT = ",".join(str(c) for c in _SLICE_NODES).encode()


def _add(a, b):
    return a + b


def calibrate():
    """One slice of fixed interpreter work, about a millisecond.

    The mix holds about equal time of dict updates, list comprehensions,
    string joins, Python calls and hashing.
    """
    counts = {}
    for v, c in enumerate(_SLICE_NODES):
        key = (c & 63, v & 7)
        counts[key] = counts.get(key, 0) + 1
    for c in range(6):
        [v for v, cc in enumerate(_SLICE_NODES) if cc == c]
    for _ in range(3):
        ",".join(str(c) for c in _SLICE_NODES)
    total = 0
    for i in range(2500):
        total = _add(total, i)
    for _ in range(20):
        hashlib.sha256(_SLICE_TEXT).hexdigest()


class Calibration:
    """Calibration slices taken around and, by SIGPROF, inside timed calls.

    Host speed on a shared machine swings by a third within seconds, and it
    moves bytecode loops more than C code. A timed round is scaled by the
    median speed of the slices taken while it ran, so the scaled time
    follows the code and not the host. `clock` leaves out the time spent
    in slices.
    """

    def __init__(self):
        self.slices = []
        self.in_slices = 0.0      # seconds of slices taken inside calls

    def take(self) -> float:
        t0 = time.perf_counter()
        calibrate()
        seconds = time.perf_counter() - t0
        self.slices.append(seconds)
        return seconds

    def clock(self) -> float:
        return time.perf_counter() - self.in_slices

    def _on_signal(self, signum, frame):
        self.in_slices += self.take()

    def start(self):
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, SLICE_INTERVAL_S, SLICE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def scale(self, first: int = 0) -> float:
        """Reference seconds per host second, from slice `first` on."""
        return CALIBRATION_REF_S / statistics.median(self.slices[first:])


def import_repart():
    sys.path.insert(0, str(SRC))
    import repart
    if not Path(repart.__file__).resolve().is_relative_to(SRC):
        raise ImportError("repart resolved outside %s: %s" % (SRC, repart.__file__))
    return repart


class RunTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise RunTimeout


def timed(call, cap_s: float, cal: Calibration):
    """Run call() under a wall-clock cap, taking calibration slices.

    Returns (result, seconds without the slices).
    """
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    cal.start()
    try:
        t0 = cal.clock()
        out = call()
        return out, cal.clock() - t0
    finally:
        cal.stop()
        signal.setitimer(signal.ITIMER_REAL, 0)


def setup_probe(task):
    """Cold import plus building round 0 of both operations."""
    t0 = time.perf_counter()
    import_repart()
    import workloads
    w = workloads.WORKLOADS[task["workload"]]
    for op in w.ops:
        w.cases(op, task["seed"], 0)
    setup = time.perf_counter() - t0
    cal = Calibration()
    for _ in range(25):
        cal.take()
    return {"setup_s": setup * cal.scale(), "unscaled_s": setup}


class Book:
    """Attempts, failures and their first messages."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.errors = []

    def fail(self, message: str):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def _run_case(book, case, cap_s, where, reference, cal, tracer=None):
    """Time one case, traced if a tracer is given, then check it untraced.

    Returns (result, scaled seconds), or None when the run failed. The
    scale comes from the slices taken just before, during and just after it.
    """
    book.attempted += 1
    first = len(cal.slices)
    cal.take()
    if tracer is not None:
        tracer.install()
    try:
        result, seconds = timed(case.call, cap_s, cal)
    except RunTimeout:
        book.fail("%s: over the %gs cap" % (where, cap_s))
        return None
    except Exception as exc:     # any library error is a failed run
        book.fail("%s: %s: %s" % (where, type(exc).__name__, exc))
        return None
    finally:
        if tracer is not None:
            tracer.uninstall()
    cal.take()
    seconds *= cal.scale(first)
    errs = case.check(result)
    if reference is not None and case.summary(result) != reference:
        errs.append("differs from reference %r: %r"
                    % (reference, case.summary(result)))
    if errs:
        book.fail("%s: %s" % (where, "; ".join(errs)))
        return None
    return result, seconds


def _reference(task):
    refs = json.loads(REFERENCE.read_text())
    return refs.get(str(task["seed"]), {}).get(task["workload"], {})


def measure(task):
    """Rounds of the two operations in turn until the time is used.

    Both operations run round r on the same seeded inputs, so each does the
    same number of rounds and they can be checked against each other.
    """
    import_repart()
    import workloads
    w = workloads.WORKLOADS[task["workload"]]
    seed, cap_s = task["seed"], task["cap_s"]
    refs = _reference(task)
    book = Book()
    # per round: scaled seconds, requests, scaled seconds per case
    ops = {op: [] for op in w.ops}
    summaries = {op: {} for op in w.ops}
    active = list(w.ops)
    cal = Calibration()
    t_end = time.perf_counter() + task["seconds"]
    r = 0
    while active and (r == 0 or time.perf_counter() < t_end):
        for op in list(active):
            scaled = requests = 0
            summary, per_case = {}, {}
            cases = w.cases(op, seed, r)
            ref = refs.get(op, [])
            ref = ref[r] if r < len(ref) else {}
            for i, case in enumerate(cases):
                got = _run_case(book, case, cap_s, "%s round %d %s"
                                % (op, r, case.label), ref.get(case.label), cal)
                if got is None:
                    active.remove(op)    # a failed operation is not retried
                    break
                scaled += got[1]
                per_case[case.label] = got[1]
                requests += case.requests(got[0])
                summary[case.label] = case.summary(got[0])
                cases[i] = got = None    # free the transcript before the next case
            else:
                ops[op].append((scaled, requests, per_case))
                summaries[op][r] = summary
        r += 1
    for err in workloads.cross_check(task["workload"], summaries):
        book.fail(err)
    return {"ops": ops, "scale": cal.scale(), "attempted": book.attempted,
            "failed": book.failed, "errors": book.errors}


def trace(task):
    """Round 0 of each operation untraced and traced; outputs must match."""
    import_repart()
    import tracer
    import workloads
    w = workloads.WORKLOADS[task["workload"]]
    seed, cap_s = task["seed"], task["cap_s"]
    refs = _reference(task)
    book = Book()
    cal = Calibration()
    tr = tracer.Tracer(cal.clock)
    plain_s = traced_s = 0.0
    sim = {"sim.on_comm": 0, "sim.on_mig": 0, "sim.off_total": 0}
    for op in w.ops:
        ref_round = refs.get(op, [None])[0]
        for case, twin in zip(w.cases(op, seed, 0), w.cases(op, seed, 0)):
            where = "%s round 0 %s" % (op, case.label)
            ref = ref_round[case.label] if ref_round else None
            plain = _run_case(book, case, cap_s, where, ref, cal)
            traced = _run_case(book, twin, cap_s, where + " traced", ref, cal, tr)
            if plain is None or traced is None:
                continue
            if case.lines(plain[0]) != twin.lines(traced[0]):
                book.fail(where + ": traced run differs from untraced run")
                continue
            plain_s += plain[1]
            traced_s += traced[1]
            summary = case.summary(plain[0])
            sim["sim.on_comm"] += summary.get("comm", 0)
            sim["sim.on_mig"] += summary.get("mig", 0)
            sim["sim.off_total"] += summary.get("opt", 0)
    layers = tr.metrics(cal.scale())
    layers.update(sim)
    layers["trace.overhead_share"] = traced_s / plain_s - 1 if plain_s else 0.0
    return {"layers": layers, "attempted": book.attempted,
            "failed": book.failed, "errors": book.errors}


def record(task):
    """Reference summaries for the first rounds of every operation.

    python3 perfbench/worker.py '{"mode": "record", "seeds": [0, 7919],
        "rounds": 3}' > perfbench/reference.json
    """
    import_repart()
    import workloads
    out = {}
    for seed in task["seeds"]:
        out[str(seed)] = by_workload = {}
        for name, w in workloads.WORKLOADS.items():
            by_workload[name] = {}
            for op in w.ops:
                rounds = []
                for r in range(task["rounds"]):
                    summary = {}
                    for case in w.cases(op, seed, r):
                        result = case.call()
                        errs = case.check(result)
                        if errs:
                            raise RuntimeError("%s %s round %d: %s"
                                               % (name, op, r, errs))
                        summary[case.label] = case.summary(result)
                    rounds.append(summary)
                by_workload[name][op] = rounds
    return out


MODES = {"setup": setup_probe, "measure": measure, "trace": trace,
         "record": record}

if __name__ == "__main__":
    task = json.loads(sys.argv[1])
    print(json.dumps(MODES[task["mode"]](task)))
