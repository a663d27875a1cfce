"""Command-line harness: single runs, invariant sweeps, and grid sweeps.

Reports are deterministic (sorted keys, no timestamps) so repeated runs of
the same spec are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import MISSING, dataclass, fields, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from . import adversaries, engine, offline
from .components import ComponentRepartitioner
from .core import (Configuration, Params, RepartError, TooLarge,
                   contiguous_configuration)
from .greedy import DEFAULT_LAM, GreedyMatcher

if TYPE_CHECKING:
    import argparse   # main() imports it, so importing the library does not

ALGORITHMS = ("greedy", "components", "null", "naive")
SOURCES = ("ring", "pair_chase", "group_phases", "paging", "random",
           "planted", "trace")


@dataclass
class RunSpec:
    alg: str
    source: str
    n: int
    k: int
    l: int
    alpha: int = 1
    delta: Optional[int] = None     # None: the algorithm's own default
    lam: int = DEFAULT_LAM
    seed: int = 0
    steps: int = 200
    oracle: str = "dp"
    trace: Optional[str] = None
    out: Optional[str] = None
    p_in: float = 0.9
    p_out: float = 0.1

    def validate(self):
        if self.alg not in ALGORITHMS:
            raise ValueError("unknown algorithm %r" % self.alg)
        if self.source not in SOURCES:
            raise ValueError("unknown source %r" % self.source)
        if self.oracle not in ("dp", "static", "none"):
            raise ValueError("oracle must be dp, static, or none")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.alg == "greedy" and self.k != 2:
            raise ValueError("greedy needs clusters of size 2")
        if self.alg == "components" and self.augmentation() < 4:
            raise ValueError("components needs delta >= 4")
        if self.source == "group_phases" and self.l != 2:
            raise ValueError("group_phases needs exactly two clusters")
        if self.source in ("paging", "trace") and not self.trace:
            raise ValueError("source %r needs --trace" % self.source)
        self.params()

    def augmentation(self) -> int:
        """delta as set, or else the algorithm's default: the component
        algorithm needs delta >= 4, the others run unaugmented."""
        if self.delta is not None:
            return self.delta
        return 4 if self.alg == "components" else 1

    def params(self) -> Params:
        return Params(self.n, self.k, self.l, self.alpha, self.augmentation())


def initial_for(spec: RunSpec) -> Configuration:
    params = spec.params()
    if spec.source == "group_phases":
        return adversaries.group_phases_initial(params)
    if spec.source == "paging":
        return adversaries.paging_initial(params)
    return contiguous_configuration(params)


def make_source(spec: RunSpec):
    params = spec.params()
    if spec.source == "ring":
        return adversaries.RingAdversary(params)
    if spec.source == "pair_chase":
        return adversaries.PairChase(params, phases=spec.lam)
    if spec.source == "group_phases":
        return adversaries.GroupPhases(params)
    if spec.source == "paging":
        with open(spec.trace) as fh:
            items = [int(tok) for tok in fh.read().split()]
        return adversaries.PagingStream(params, items)
    if spec.source == "random":
        return adversaries.RandomPairs(spec.seed, spec.n, spec.steps)
    if spec.source == "planted":
        return adversaries.PlantedPartition(
            spec.seed, params, spec.p_in, spec.p_out, steps=spec.steps)
    return adversaries.parse_trace(spec.trace, spec.n)


def make_algorithm(spec: RunSpec, initial: Configuration):
    params = spec.params()
    if spec.alg == "greedy":
        return GreedyMatcher(params, lam=spec.lam)
    if spec.alg == "components":
        return ComponentRepartitioner(params, initial)
    if spec.alg == "null":
        return engine.NullAlgorithm()
    return engine.NaiveCollocator(params)


def execute(spec: RunSpec, observe: Optional[Callable] = None):
    """Run the spec; returns (transcript, algorithm, source). `observe`,
    when given, is called with the algorithm before the first step and
    returns the engine observer for the run."""
    initial = initial_for(spec)
    alg = make_algorithm(spec, initial)
    start = alg.start if spec.alg == "components" else initial
    src = make_source(spec)
    transcript = engine.run(alg, src, spec.params(), start, spec.steps,
                            observer=observe(alg) if observe else None)
    return transcript, alg, src


Spaces = Dict[Tuple[int, int, int, int], offline.PartitionSpace]


def _offline_cost(spec: RunSpec, transcript: engine.Transcript,
                  spaces: Spaces) -> Optional[int]:
    """The offline optimum of the run's requests, or None without an
    oracle or when the state space is too large. `spaces` holds the
    partition space of the last (n, k, l, alpha) seen, shared by the
    consecutive runs of a command that have that shape."""
    if spec.oracle == "none":
        return None
    shape = (spec.n, spec.k, spec.l, spec.alpha)
    try:
        if shape not in spaces:
            spaces.clear()  # one space and its neighbour masks alive at a time
            spaces[shape] = offline.PartitionSpace(spec.params())
        args = (spec.params(), initial_for(spec), spaces[shape])
        if spec.oracle == "static":
            return offline.static_optimal(transcript.requests(), *args)[0]
        # the total only: no per-request vectors are kept
        work = offline.WorkFunction(*args)
        for req in transcript.requests():
            work.push(req)
        return work.value
    except TooLarge:
        return None


def cmd_run(spec: RunSpec, spaces: Optional[Spaces] = None) -> dict:
    transcript, alg, src = execute(spec)
    ledger = transcript.ledger
    report = {
        "alg": spec.alg, "source": spec.source,
        "n": spec.n, "k": spec.k, "l": spec.l,
        "alpha": spec.alpha, "delta": spec.augmentation(), "lambda": spec.lam,
        "seed": spec.seed, "steps_requested": spec.steps,
        "steps_served": len(transcript.steps),
        "on_comm": ledger.comm_total, "on_mig": ledger.mig_total,
        "on_total": ledger.total,
        "oracle": spec.oracle,
        "off_total": None, "ratio": None, "ratio_decimal": None,
        "steps_path": None,
    }
    off = _offline_cost(spec, transcript, {} if spaces is None else spaces)
    if off is not None:
        report["off_total"] = off
        r = engine.ratio(ledger.total, off)
        report["ratio"] = engine.format_ratio(r)
        if r is not engine.UNDEFINED:
            report["ratio_decimal"] = float(r)
    if hasattr(src, "profile"):
        report["profile"] = list(src.profile)
        if spec.source == "pair_chase" and src.profile:
            never, first, each = offline.reference_strategies_k2(
                src.profile, spec.alpha)
            report["reference_costs"] = {
                "never_move": never, "move_first": first,
                "move_each_phase": each}
    if isinstance(alg, ComponentRepartitioner):
        errs = alg.check_invariants()
        report["invariants"] = {"status": "pass" if not errs else "fail",
                                "violations": errs}
    if spec.out:
        steps_path = spec.out + ".steps"
        with open(steps_path, "w") as fh:
            for line in transcript.step_lines():
                fh.write(line + "\n")
        report["steps_path"] = steps_path
        _write_report(spec.out, report)
    return report


def _write_report(path: str, report: dict):
    with open(path, "w") as fh:   # as main prints it
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


class _VerifyAbort(Exception):
    """Carries a failed per-step check's text out of the engine loop."""


def cmd_verify(spec: RunSpec, tamper: Optional[Callable] = None) -> Tuple[int, str]:
    """Per-step invariant run; returns (exit_code, text report).

    `tamper` is a test seam: called as tamper(t, alg) before each step's
    checks, letting tests corrupt state at a chosen step.
    """
    if spec.alg not in ("greedy", "components"):
        raise ValueError("verify covers greedy and components runs")
    if spec.out:
        raise ValueError("verify writes no report; drop --out")

    # a check that fails raises: stepping a corrupted algorithm can only crash
    def observe(alg):
        def observer(t, config, req, comm, mig):
            if tamper is not None:
                tamper(t, alg)
            if isinstance(alg, ComponentRepartitioner):
                errs = alg.check_invariants(config)
                if not errs and alg.residual_merge_set():
                    errs = ["qualifying merge set survived the step"]
                if errs:
                    raise _VerifyAbort("step %d\n%s\n%s" % (
                        t, "\n".join(errs), alg.dump_state()))
            else:
                # a swap resets every counter that reaches the cap
                cap = alg.lam * spec.alpha
                hot = [c for c, w in alg.out_counts.items() if w >= cap]
                if hot:
                    raise _VerifyAbort("step %d\ncluster counters reached "
                                       "%d: %s" % (t, cap, sorted(hot)))
        return observer

    try:
        transcript, _, _ = execute(spec, observe)
    except _VerifyAbort as failure:
        return 1, "FAIL %s\n%s" % (spec.alg, failure)
    return 0, "PASS %s: %d steps, all per-step checks hold" % (
        spec.alg, len(transcript.steps))


SWEEP_FIELDS = ("alg", "source", "n", "k", "l", "alpha", "seed",
                "on_cost", "off_cost", "ratio", "error")


def cmd_sweep(base: RunSpec, ks: List[int], ls: List[int],
              alphas: List[int], seeds: List[int]) -> str:
    """One run per (k, l, alpha, seed) cell; returns CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(SWEEP_FIELDS)
    cells = sorted((k, l, a, s) for k in ks for l in ls
                   for a in alphas for s in seeds)
    spaces: Spaces = {}
    for k, l, a, seed in cells:
        row = {"alg": base.alg, "source": base.source, "n": k * l, "k": k,
               "l": l, "alpha": a, "seed": seed, "on_cost": "",
               "off_cost": "", "ratio": "", "error": ""}
        spec = replace(base, n=k * l, k=k, l=l, alpha=a, seed=seed, out=None)
        try:
            spec.validate()
            report = cmd_run(spec, spaces)
            row["on_cost"] = report["on_total"]
            if report["off_total"] is not None:
                row["off_cost"] = report["off_total"]
                row["ratio"] = report["ratio"]
        except Exception as exc:
            row["error"] = "%s: %s" % (type(exc).__name__, exc)
        writer.writerow([row[f] for f in SWEEP_FIELDS])
    return buf.getvalue()


def cmd_compare(spec: RunSpec, algs: List[str]) -> dict:
    """Run several algorithms against fresh copies of the same source."""
    runs = {}
    spaces: Spaces = {}
    for alg in algs:
        cell = replace(spec, alg=alg, out=None)
        cell.validate()
        report = cmd_run(cell, spaces)
        runs[alg] = {key: report[key] for key in
                     ("on_total", "on_comm", "on_mig", "off_total", "ratio")}
    report = {"source": spec.source, "n": spec.n, "k": spec.k, "l": spec.l,
              "alpha": spec.alpha, "seed": spec.seed, "steps": spec.steps,
              "runs": runs}
    if spec.out:
        _write_report(spec.out, report)
    return report


# ---------------------------------------------------------------------------
# argument plumbing


def _read_config(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError("config line %r is not key=value" % line)
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


# RunSpec's annotations are strings under `from __future__ import annotations`
_PARSE = {"int": int, "Optional[int]": int, "float": float}


def build_spec(args: argparse.Namespace) -> RunSpec:
    """A validated spec from the --config file, overridden by the flags."""
    merged = _read_config(args.config) if args.config else {}
    if "lambda" in merged:
        merged["lam"] = merged.pop("lambda")
    settings = fields(RunSpec)
    unknown = sorted(set(merged) - {f.name for f in settings})
    if unknown:
        raise ValueError("unknown setting %r" % unknown[0])
    for f in settings:
        val = getattr(args, f.name, None)
        if val is not None:
            merged[f.name] = val
        if f.name in merged and f.type in _PARSE:
            merged[f.name] = _PARSE[f.type](merged[f.name])
    for f in settings:
        if f.default is MISSING and f.name not in merged:
            raise ValueError("missing required setting %r" % f.name)
    spec = RunSpec(**merged)
    spec.validate()
    return spec


def _int_list(text: str) -> List[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--alg", help="one of %s; compare takes a comma list"
                   % ", ".join(ALGORITHMS))
    p.add_argument("--source", choices=SOURCES)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--alpha", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--lambda", dest="lam", type=int,
                   help="greedy trigger multiplier; phase count for pair_chase")
    p.add_argument("--seed", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--oracle", choices=("dp", "static", "none"))
    p.add_argument("--trace", help="trace file (requests, or paging items)")
    p.add_argument("--out", help="output path (report JSON / CSV)")
    p.add_argument("--config", help="key=value file; flags override it")


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repart",
        description="online repartitioning testbench: run, verify, sweep, compare")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "verify", "compare"):
        _add_common(sub.add_parser(name))
    sweep = sub.add_parser("sweep")
    _add_common(sweep)
    sweep.add_argument("--ks", type=_int_list, help="comma list of k values")
    sweep.add_argument("--ls", type=_int_list, help="comma list of l values")
    sweep.add_argument("--alphas", type=_int_list)
    sweep.add_argument("--seeds", type=_int_list)
    args = parser.parse_args(argv)

    try:
        if args.command == "sweep":
            if args.k is None and args.ks:
                args.k = args.ks[0]
            if args.l is None and args.ls:
                args.l = args.ls[0]
            if args.alpha is None and args.alphas:
                args.alpha = args.alphas[0]
            if args.seed is None and args.seeds:
                args.seed = args.seeds[0]
            if args.n is None and args.k and args.l:
                args.n = args.k * args.l
            base = build_spec(args)
            text = cmd_sweep(base, args.ks or [base.k], args.ls or [base.l],
                             args.alphas or [base.alpha],
                             args.seeds or [base.seed])
            if base.out:
                with open(base.out, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return 0
        if args.command == "verify":
            spec = build_spec(args)
            code, text = cmd_verify(spec)
            print(text)
            return code
        if args.command == "compare":
            algs = (args.alg or "greedy").split(",")
            args.alg = algs[0]
            spec = build_spec(args)
            report = cmd_compare(spec, algs)
            print(json.dumps(report, indent=2, sort_keys=True))
            return 0
        spec = build_spec(args)
        report = cmd_run(spec)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    except (ValueError, OSError, RepartError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
