"""Command-line interface: experiment runner over the config format.

Every command is a pure function of (config file, seed): reports and
CSV artifacts are byte-identical across reruns.  Exit codes: 0 for
success (and passing verdicts), 1 for a failing or undecided verdict,
2 for usage or config errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import warnings

import numpy as np

from .config import Config, ConfigError
from .discrete import (ancestral_trajectories, forward_trajectories,
                       has_exact_kernels, sampling_duality_check)
from .dual_chain import (RegimeUnclear, moment_duality_check,
                         recurrence_probe, run_chains)
from .limit_sde import simulate_batch
from .mc import McEstimate
from .simplex import LambdaDirac
from .threshold import fixation_probability, kappa_star_dirac, kappa_star_mc

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

_CSV_CHUNK = 4096


def _py(obj):
    """Recursively convert numpy scalars/arrays for JSON reports."""
    if isinstance(obj, dict):
        return {str(k): _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_py(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _estimate_dict(est: McEstimate) -> dict:
    return {"mean": est.mean, "std_error": est.std_error,
            "replicates": est.replicates,
            "interval": list(est.interval)}


# ---------------------------------------------------------------------------
# command handlers: (config, rng) -> (exit code, results, diagnostics, tables)
# tables map file stem -> (header, columns): one equal-length array per
# header name


def _cmd_forward(cfg: Config, rng: np.random.Generator):
    params = cfg.discrete_params()
    run = cfg.run
    traj = forward_trajectories(params, run.x0, run.generations,
                                run.replicates, rng)
    finals = traj[:, -1]
    est = McEstimate.from_samples(finals)
    results = {"final_mean": _estimate_dict(est),
               "fixed_fraction": float((finals == 1.0).mean()),
               "lost_fraction": float((finals == 0.0).mean())}
    diagnostics = {"pop_size": params.pop_size, "generations": run.generations,
                   "replicates": run.replicates, "x0": run.x0}
    return EXIT_OK, results, diagnostics, {
        "forward": (("replicate", "generation", "frequency"),
                    _path_columns(traj))}


def _cmd_ancestry(cfg: Config, rng: np.random.Generator):
    params = cfg.discrete_params()
    run = cfg.run
    traj = ancestral_trajectories(params, run.sample_size, run.generations,
                                  run.replicates, rng)
    finals = traj[:, -1]
    est = McEstimate.from_samples(finals.astype(float))
    results = {"final_mean": _estimate_dict(est),
               "single_ancestor_fraction": float((finals == 1).mean())}
    diagnostics = {"pop_size": params.pop_size, "generations": run.generations,
                   "replicates": run.replicates, "sample_size": run.sample_size}
    return EXIT_OK, results, diagnostics, {
        "ancestry": (("replicate", "generation", "lineages"),
                     _path_columns(traj))}


def _cmd_duality_discrete(cfg: Config, rng: np.random.Generator):
    params = cfg.discrete_params()
    run = cfg.run
    mode = "exact" if has_exact_kernels(params) else "mc"
    report = sampling_duality_check(params, run.x, run.sample_size,
                                    run.generations, mode=mode,
                                    replicates=run.replicates, rng=rng)
    results = {"verdict": report.verdict, "mode": report.mode,
               "lhs": report.lhs, "rhs": report.rhs, "gap": report.gap,
               "tolerance": report.tolerance}
    diagnostics = {"lhs_se": report.lhs_se, "rhs_se": report.rhs_se,
                   "x": run.x, "sample_size": run.sample_size,
                   "generations": run.generations}
    return (EXIT_OK if report.passed else EXIT_FAIL), results, diagnostics, {}


def _cmd_sde(cfg: Config, rng: np.random.Generator):
    params = cfg.limit_params()
    run = cfg.run
    finals, diag = simulate_batch(params, run.x0, run.time, run.dt,
                                  run.replicates, rng, return_diagnostics=True)
    est = McEstimate.from_samples(finals)
    results = {"final_mean": _estimate_dict(est),
               "near_zero_fraction": float((finals < 0.01).mean()),
               "near_one_fraction": float((finals > 0.99).mean())}
    diagnostics = dict(diag)
    diagnostics.update({"time": run.time, "dt": run.dt,
                        "replicates": run.replicates, "x0": run.x0})
    return EXIT_OK, results, diagnostics, {
        "sde_finals": (("replicate", "final_frequency"),
                       (np.arange(finals.size), finals))}


def _cmd_dual_ctmc(cfg: Config, rng: np.random.Generator):
    params = cfg.limit_params()
    run = cfg.run
    runs = run_chains(params, run.n0, run.time, run.replicates, rng,
                      cap=run.cap)
    est = McEstimate.from_samples(runs.final.astype(float))
    results = {"final_mean": _estimate_dict(est),
               "escape_fraction": int(runs.escaped.sum()) / run.replicates}
    diagnostics = {"n0": run.n0, "time": run.time, "cap": run.cap,
                   "replicates": run.replicates}
    return EXIT_OK, results, diagnostics, {
        "dual_ctmc": (("replicate", "final_state", "returns_to_one",
                       "escaped"),
                      (np.arange(run.replicates), runs.final,
                       runs.returns_to_one, runs.escaped))}


def _cmd_duality_limit(cfg: Config, rng: np.random.Generator):
    params = cfg.limit_params()
    run = cfg.run
    report = moment_duality_check(params, run.x, run.sample_size, run.time,
                                  run.dt, run.replicates, rng)
    results = {"verdict": report.verdict,
               "lhs": _estimate_dict(report.lhs),
               "rhs": _estimate_dict(report.rhs),
               "gap": report.gap, "tolerance": report.tolerance}
    diagnostics = {"combined_se": report.combined_se, "x": run.x,
                   "order": run.sample_size, "time": run.time, "dt": run.dt}
    return (EXIT_OK if report.passed else EXIT_FAIL), results, diagnostics, {}


def _cmd_kappa_star(cfg: Config, rng: np.random.Generator):
    params = cfg.limit_params()
    run = cfg.run
    if params.xi is None:
        raise ConfigError("kappa-star needs a jump measure "
                          "(model.xi.family != none)", key="model.xi.family")
    beta = params.offspring.mean_extra
    mc_diag: dict = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = kappa_star_mc(params.xi, beta, run.replicates, rng, mc_diag)
    results = {"estimate": _estimate_dict(est), "mean_extra": beta}
    diagnostics = dict(mc_diag)
    diagnostics["warnings"] = [str(w.message) for w in caught]
    code = EXIT_OK
    if params.kingman_rate > 0.0:
        # no finite threshold to compare the estimate with
        diagnostics["warnings"].append(
            "kappa* = inf at model.kingman_rate > 0: pairwise mergers bring "
            "the dual chain down from any n, so it is recurrent at every "
            "selection rate; the estimate ignores them")
        results["verdict"] = "not-applicable"
    elif isinstance(params.xi, LambdaDirac) and params.xi.y == 1.0:
        diagnostics["warnings"].append(
            "kappa* = inf at model.xi.y = 1: every xi event merges all "
            "lineages into one, so the dual chain returns to one lineage at "
            "every selection rate")
        results["verdict"] = "not-applicable"
    elif isinstance(params.xi, LambdaDirac):
        closed = params.xi.total_mass * kappa_star_dirac(params.xi.y, beta)
        gap = abs(est.mean - closed)
        within = gap <= 3.0 * est.std_error
        results.update({"closed_form": closed, "gap": gap,
                        "verdict": "pass" if within else "fail"})
        code = EXIT_OK if within else EXIT_FAIL
    return code, results, diagnostics, {}


def _cmd_recurrence(cfg: Config, rng: np.random.Generator):
    params = cfg.limit_params()
    run = cfg.run
    report = recurrence_probe(params, run.n0, run.time, run.cap,
                              run.replicates, rng)
    results = {"verdict": report.verdict,
               "escape_fraction": report.escape_fraction,
               "mean_returns_to_one": report.mean_returns_to_one,
               "mean_return_time": report.mean_return_time}
    diagnostics = {"n0": run.n0, "horizon": run.time, "cap": run.cap,
                   "replicates": run.replicates}
    code = EXIT_FAIL if report.verdict == "inconclusive" else EXIT_OK
    return code, results, diagnostics, {}


def _cmd_fixation(cfg: Config, rng: np.random.Generator):
    params = cfg.limit_params()
    run = cfg.run
    probe = recurrence_probe(params, run.n0, run.time, run.cap,
                             run.replicates, rng, burn_in=run.burn_in)
    diagnostics = {"regime": probe.verdict,
                   "escape_fraction": probe.escape_fraction,
                   "mean_returns_to_one": probe.mean_returns_to_one,
                   "x": run.x, "n0": run.n0, "horizon": run.time}
    if probe.verdict == "recurrent-looking" and run.time <= run.burn_in:
        raise ConfigError("fixation needs run.time > run.burn_in to "
                          "average the occupation measure", key="run.time")
    try:
        est = fixation_probability(run.x, probe)
    except RegimeUnclear as exc:
        # a model outcome, reported like the probe's own: not a config error
        diagnostics["reason"] = str(exc)
        return EXIT_FAIL, {"verdict": "inconclusive"}, diagnostics, {}
    results = {"probability": _estimate_dict(est), "regime": probe.verdict}
    return EXIT_OK, results, diagnostics, {}


# command -> (handler, help)
_COMMANDS = {
    "forward": (_cmd_forward, "simulate forward frequency trajectories of "
                              "the finite model"),
    "ancestry": (_cmd_ancestry, "simulate backward lineage-count "
                                "trajectories"),
    "duality-discrete": (_cmd_duality_discrete,
                         "check the finite-model sampling duality"),
    "sde": (_cmd_sde, "simulate the limit jump-diffusion"),
    "dual-ctmc": (_cmd_dual_ctmc,
                  "simulate the dual branching-coalescing chain"),
    "duality-limit": (_cmd_duality_limit,
                      "check the limit moment duality by Monte Carlo"),
    "kappa-star": (_cmd_kappa_star, "estimate the fixation threshold for "
                                    "the selection rate"),
    "fixation": (_cmd_fixation, "estimate the probability that the weak "
                                "type is lost, through the dual chain"),
    "recurrence": (_cmd_recurrence,
                   "probe the dual chain for recurrence vs escape"),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call of a process."""
    parser = argparse.ArgumentParser(
        prog="cannings",
        description="Simulation and duality checks for two-type Cannings "
                    "models with selection and extreme reproduction.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True,
                       help="path to the experiment config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override run.seed")
        p.add_argument("--out", default=None,
                       help="directory for CSV/JSON artifacts "
                            "(overrides output.dir)")
        p.add_argument("--replicates", type=int, default=None,
                       help="override run.replicates")
        p.add_argument("--format", choices=("csv", "json"), default="json",
                       help="stdout format (default json report)")
    return parser


def _path_columns(traj: np.ndarray) -> tuple[np.ndarray, ...]:
    """(replicate, generation, value) columns of a (replicates,
    generations + 1) path array, replicate-major."""
    reps, steps = traj.shape
    return (np.repeat(np.arange(reps), steps), np.tile(np.arange(steps), reps),
            traj.ravel())


def _column_text(column) -> list[str]:
    """A column as CSV cells, formatted once for the whole column: repr
    for floats, str for ints and text, 0/1 for bools."""
    column = np.asarray(column)
    if column.dtype == bool:
        column = column.astype(np.int64)
    return list(map(repr if column.dtype.kind == "f" else str,
                    column.tolist()))


def _write_csv(fh, header, columns) -> None:
    """Write a table given as equal-length columns, formatting
    ``_CSV_CHUNK`` rows of each column at a time, so that the text held
    in memory stays small whatever the table's length."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for start in range(0, len(columns[0]), _CSV_CHUNK):
        writer.writerows(zip(*(_column_text(column[start:start + _CSV_CHUNK])
                               for column in columns)))


def _write_report_csv(fh, report: dict) -> None:
    """The report as a (key, value) table: nested keys joined by dots,
    list values joined by spaces."""
    keys, values = [], []

    def flatten(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                flatten(f"{prefix}.{k}" if prefix else str(k), obj[k])
        else:
            keys.append(prefix)
            items = obj if isinstance(obj, list) else [obj]
            values.append(" ".join(_column_text([v])[0] for v in items))

    flatten("", report)
    _write_csv(fh, ("key", "value"), (keys, values))


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE
    overrides = {}
    if args.seed is not None:
        overrides["run.seed"] = str(args.seed)
    if args.replicates is not None:
        overrides["run.replicates"] = str(args.replicates)
    try:
        cfg = Config.from_file(args.config, overrides)
        rng = np.random.default_rng(cfg.run.seed)
        handler = _COMMANDS[args.command][0]
        code, results, diagnostics, tables = handler(cfg, rng)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = _py({"command": args.command, "config_hash": cfg.hash(),
                  "seed": cfg.run.seed, "results": results,
                  "diagnostics": diagnostics})
    report_text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.format == "json":
        sys.stdout.write(report_text)
    else:
        _write_report_csv(sys.stdout, report)
    out_dir = args.out or cfg.output_dir
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write(report_text)
        for stem, (header, columns) in tables.items():
            with open(os.path.join(out_dir, f"{stem}.csv"), "w",
                      encoding="utf-8", newline="\n") as fh:
                _write_csv(fh, header, columns)
    return code


if __name__ == "__main__":
    sys.exit(main())
