"""Benchmark of the cannings experiment runner.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Each workload is a fixed list of experiments, each a list of
``cannings.cli.main`` invocations with ``--out`` into a scratch
directory under ``bench/.work``: what a user runs.  The loop is closed:
one client, one process, invocations back to back in a fixed order,
cycling through the list until ``--seconds`` have passed.  The seed
reaches the program only as ``--seed``; the configs are generated here.

``--trace 0`` times every experiment (the median over cycles of its
time calibrated to the host's speed, see calibrate.py), the set-up in
fresh processes, and peak memory.  ``--trace 1`` alternates untraced
and traced cycles, wrapping the public functions of every ``cannings``
module (see tracer.py), and reports per-layer metrics.  Both check every
invocation against its predicted verdict and check that reports are
byte-identical across same-seed invocations and between traced and
untraced cycles.  The last line of standard output is the JSON result;
a fuller record goes to ``bench/results/``.

``--smoke`` runs every workload at tiny sizes, traced and untraced, on
two seeds, and asserts that every metric named in BENCHMARK.json is
emitted.
"""

from __future__ import annotations

import os

# pin BLAS before numpy is imported, here and in every child process
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

import calibrate  # noqa: E402
import experiments as ex  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 3
SETUP_REFERENCES = 5


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": dict(BLAS_ENV), "loadavg": list(os.getloadavg())}


def measure_setup(config_paths: list[str], repeats: int) -> float:
    """Median calibrated set-up time over fresh processes.

    A probe lasts about a second, which one 6 ms reference run tracks
    poorly, so each probe is calibrated by the median of
    ``SETUP_REFERENCES`` reference runs before it and as many after.
    """
    probe = os.path.join(BENCH, "setup_probe.py")
    times = []
    for _ in range(repeats):
        refs = [calibrate.time_reference() for _ in range(SETUP_REFERENCES)]
        out = subprocess.run([sys.executable, probe, SRC, *config_paths],
                             check=True, capture_output=True,
                             text=True, timeout=120)
        refs += [calibrate.time_reference() for _ in range(SETUP_REFERENCES)]
        seconds = float(out.stdout.strip().splitlines()[-1])
        times.append(calibrate.calibrated(seconds, statistics.median(refs)))
    return statistics.median(times)


class Runner:
    """Runs invocations, checks them, and keeps the books."""

    def __init__(self, cli, workdir: str) -> None:
        self.cli = cli
        self.outdir = os.path.join(workdir, "out")
        self.attempted = 0
        self.failed = 0
        self.incorrect: list[str] = []
        self.failures: list[str] = []
        self.hashes: dict[tuple[str, int], str] = {}
        self.gaps: dict[str, float] = {}
        self.tracer: Tracer | None = None

    def invoke(self, exp, index: int, args) -> float:
        """Run one invocation; returns its wall time in seconds."""
        out = self.outdir
        argv = list(args) + ["--out", out]
        label = f"{exp.name}[{index}] {' '.join(args[:1] + args[3:])}"
        self.attempted += 1
        self._problems: list[tuple[str, bool]] = []
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                # looked up per call, so that a traced cycle runs the wrapper
                code = self.cli.main(argv)
        except Exception as exc:  # an invocation that raises is a failure
            code = None
            self._problem(f"raised {type(exc).__name__}: {exc}", True)
        elapsed = time.perf_counter() - t0
        if code is not None:
            try:
                self._check(exp, index, code)
            except (OSError, LookupError, TypeError, ValueError,
                    ArithmeticError) as exc:
                self._problem(f"malformed output: {exc!r}", True)
        shutil.rmtree(out, ignore_errors=True)
        if self._problems:
            self.failed += 1
            for why, incorrect in self._problems:
                self.failures.append(f"{label}: {why}")
                if incorrect:
                    self.incorrect.append(f"{label}: {why}")
        return elapsed

    def _check(self, exp, index, code) -> None:
        path = os.path.join(self.outdir, "report.json")
        with open(path, "rb") as fh:
            raw = fh.read()
        digest = hashlib.sha256(raw).hexdigest()
        key = (exp.name, index)
        if self.hashes.setdefault(key, digest) != digest:
            self._problem("report differs from an earlier same-seed run", True)
        report = json.loads(raw)
        passed, gap = exp.verdict(report)
        if gap is not None:
            self.gaps[exp.name] = max(self.gaps.get(exp.name, 0.0), gap)
        verdict = report["results"].get("verdict")
        if (code == 0) != (verdict in (None, "pass", "recurrent-looking", "escaping")):
            self._problem(f"exit code {code} disagrees with verdict {verdict}", True)
        if not passed:
            results = json.dumps(report["results"])[:200]
            self._problem(f"missed its predicted verdict (exit {code}, "
                          f"results {results})", not exp.statistical)
        for stem in exp.tables:
            table = os.path.join(self.outdir, f"{stem}.csv")
            if not os.path.isfile(table) or os.path.getsize(table) == 0:
                self._problem(f"{stem}.csv not written", True)
        if self.tracer is not None:
            self._count_output(exp, report)

    def _count_output(self, exp, report) -> None:
        tr = self.tracer
        for name in sorted(os.listdir(self.outdir)):
            path = os.path.join(self.outdir, name)
            tr.count("cli.bytes_written", os.path.getsize(path))
            if name.endswith(".csv"):
                with open(path, "rb") as fh:
                    tr.count("cli.rows_written", sum(1 for _ in fh) - 1)
        if exp.command == "sde":
            diag = report["diagnostics"]
            tr.count("limit_sde.jumps_applied", diag["jumps_applied"])
            tr.count("limit_sde.clamps", diag["clamp_count"])

    def _problem(self, why: str, incorrect: bool) -> None:
        """Note a missed check; ``incorrect`` unless a 3-SE check missed."""
        self._problems.append((why, incorrect))


def run_cycle(runner: Runner, plan, tracer: Tracer | None) -> dict[str, list]:
    """Every invocation once, in order.

    Returns experiment -> [(wall seconds, reference seconds)] per
    invocation, the reference kernel timed just before the invocation.
    """
    times = {}
    runner.tracer = tracer
    for exp, invs in plan:
        if tracer is not None:
            tracer.experiment = exp.name
        times[exp.name] = []
        for index, args in enumerate(invs):
            ref = calibrate.time_reference()
            dt = runner.invoke(exp, index, args)
            times[exp.name].append((dt, ref))
            if tracer is not None:
                tracer.span("experiment", dt)
    runner.tracer = None
    return times


def cycle_seconds(times: dict[str, list]) -> dict[str, float]:
    """Calibrated seconds of each experiment in one cycle."""
    return {name: sum(calibrate.calibrated(dt, ref) for dt, ref in pairs)
            for name, pairs in times.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0, setup_repeats: int = SETUP_REPEATS,
                 min_cycles: int = 1, mc_seed: int = ex.MC_SEED) -> dict:
    env = environment()
    scratch = os.path.join(BENCH, ".work")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as work:
        cfgdir = os.path.join(work, "configs")
        os.makedirs(cfgdir)
        paths = ex.write_configs(cfgdir)
        plan = [(exp, exp.invocations(paths, seed, s, mc_seed))
                for exp, s in ex.workload_plan(workload, scale)]
        used = sorted({args[2] for _, invs in plan for args in invs})
        metrics = {}
        if not trace:
            metrics["setup_s"] = (measure_setup(used, setup_repeats), "s")

        import cannings.cli as cli
        runner = Runner(cli, work)
        # one untimed pass at smoke size fills lazy imports and caches
        warm = Runner(cli, work)
        for exp, s in ex.workload_plan(workload, ex.SMOKE):
            for index, args in enumerate(exp.invocations(paths, seed, s, mc_seed)):
                warm.invoke(exp, index, args)

        # experiment -> calibrated seconds of each cycle; raw (wall,
        # reference) pairs are kept for the record
        samples = {exp.name: [] for exp, _ in plan}
        raw = {exp.name: [] for exp, _ in plan}
        tracer = Tracer() if trace else None
        untraced = traced = 0.0
        cycles = traced_cycles = 0
        start = time.perf_counter()
        while cycles < min_cycles or time.perf_counter() - start < seconds:
            times = run_cycle(runner, plan, None)
            for name, value in cycle_seconds(times).items():
                samples[name].append(value)
                raw[name].append(times[name])
                untraced += value
            cycles += 1
            if tracer is not None:
                with tracer:
                    traced += sum(cycle_seconds(run_cycle(runner, plan, tracer)).values())
                traced_cycles += 1

        if trace:
            replays = layers.replay_chains(plan)
            metrics.update(layers.per_layer(tracer, traced_cycles, replays,
                                            runner.gaps))
            metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
        else:
            for name, values in samples.items():
                metrics[f"{name}_s"] = (statistics.median(values), "s")
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["peak_rss_mb"] = (peak, "MB")

    correct = not runner.incorrect
    record = {"workload": workload, "seed": seed, "mc_seed": mc_seed,
              "seconds": seconds,
              "trace": trace, "scale": scale, "env": env,
              "cycles": cycles, "traced_cycles": traced_cycles,
              "samples": samples, "raw": raw,
              "failures": runner.failures,
              "hashes": {f"{k[0]}[{k[1]}]": v for k, v in sorted(runner.hashes.items())},
              "check_gap_over_tol": runner.gaps,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    if trace:
        record["crosscheck"] = layers.crosscheck(tracer, traced_cycles, replays)
        record["shares"] = layers.shares(tracer)
        record["replays"] = replays
        record["spans"] = tracer.span_table()
        record["counters"] = tracer.counter_table()
    return {"correct": correct, "attempted": runner.attempted,
            "failed": runner.failed, "record": record}


def save_record(result: dict) -> str:
    rec = result["record"]
    outdir = os.path.join(BENCH, "results")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"{rec['workload']}-seed{rec['seed']}"
                                f"-trace{int(rec['trace'])}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(rec, correct=result["correct"],
                       attempted=result["attempted"],
                       failed=result["failed"]), fh, indent=1, sort_keys=True)
    return path


def summary_line(result: dict) -> str:
    rec = result["record"]
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"],
                       "metrics": rec["metrics"]})


def smoke(seed: int) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {False: {m["name"] for m in spec["end_to_end"]},
              True: {m["name"] for m in spec["per_layer"]}}
    problems = []
    digests: dict[tuple[str, int], dict] = {}
    for workload in ex.WORKLOADS:
        for s in (seed, seed + 1):
            for trace in (False, True):
                t0 = time.perf_counter()
                # the second seed moves the Monte Carlo checks' seed too
                result = run_workload(workload, s, 0.0, trace, scale=ex.SMOKE,
                                      setup_repeats=1, min_cycles=2,
                                      mc_seed=ex.MC_SEED + s - seed)
                got = set(result["record"]["metrics"])
                tag = f"{workload} seed {s} trace {int(trace)}"
                if got != wanted[trace]:
                    problems.append(f"{tag}: missing {sorted(wanted[trace] - got)}, "
                                    f"extra {sorted(got - wanted[trace])}")
                if not result["correct"] or result["failed"]:
                    problems.append(f"{tag}: {result['record']['failures']}")
                hashes = result["record"]["hashes"]
                if digests.setdefault((workload, s), hashes) != hashes:
                    problems.append(f"{tag}: reports differ from the other mode")
                print(f"smoke {tag}: {result['attempted']} invocations, "
                      f"{time.perf_counter() - t0:.1f} s", flush=True)
    for p in problems:
        print(f"SMOKE FAIL {p}", file=sys.stderr)
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(ex.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every workload, both modes")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cannings", "__init__.py")):
        print(f"no cannings sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    path = save_record(result)
    rec = result["record"]
    for failure in rec["failures"]:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {rec['cycles']} cycles, "
          f"{result['attempted']} invocations, {result['failed']} failed; "
          f"record in {os.path.relpath(path, ROOT)}")
    if args.trace:
        for line in layers.crosscheck_lines(rec["crosscheck"]):
            print(line)
    print(json.dumps({"env": rec["env"]}))
    print(summary_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
