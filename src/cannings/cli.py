"""Command-line interface: experiment runner over the config format.

Every command is a pure function of (config file, seed): reports and
CSV artifacts are byte-identical across reruns.  A handler computes its
results and diagnostics; the checks themselves (``mc.compare``,
``threshold.kappa_star``) live in the library, and the exit code comes
from the report's verdict alone: 1 when it is "fail" or "inconclusive",
else 0.  Usage and config errors exit 2.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

import numpy as np

from .config import Config, ConfigError
from .discrete import (ancestral_trajectories, forward_trajectories,
                       has_exact_kernels, sampling_duality_check)
from .dual_chain import moment_duality_check, recurrence_probe, run_chains
from .limit_sde import simulate_batch
from .mc import McEstimate, compare
from .threshold import (RegimeUnclear, fixation_probability, kappa_star,
                        kappa_star_quadrature)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

_CSV_CHUNK = 4096


def _estimate_dict(est: McEstimate) -> dict:
    return {"mean": est.mean, "std_error": est.std_error,
            "replicates": est.replicates,
            "interval": list(est.interval)}


# ---------------------------------------------------------------------------
# command handlers: (config, rng) -> (results, diagnostics, tables)
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
    return results, diagnostics, {
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
    return results, diagnostics, {
        "ancestry": (("replicate", "generation", "lineages"),
                     _path_columns(traj))}


def _cmd_duality_discrete(cfg: Config, rng: np.random.Generator):
    params = cfg.discrete_params()
    run = cfg.run
    mode = "exact" if has_exact_kernels(params) else "mc"
    check = sampling_duality_check(params, run.x, run.sample_size,
                                   run.generations, mode=mode,
                                   replicates=run.replicates, rng=rng)
    results = {"verdict": check.verdict, "mode": mode,
               "lhs": check.lhs.mean, "rhs": check.rhs.mean,
               "gap": check.gap, "tolerance": check.tolerance}
    diagnostics = {"lhs_se": check.lhs.std_error,
                   "rhs_se": check.rhs.std_error, "x": run.x,
                   "sample_size": run.sample_size,
                   "generations": run.generations}
    return results, diagnostics, {}


def _cmd_sde(cfg: Config, rng: np.random.Generator):
    params = cfg.limit_params()
    run = cfg.run
    finals, diag = simulate_batch(params, run.x0, run.time, run.dt,
                                  run.replicates, rng)
    est = McEstimate.from_samples(finals)
    results = {"final_mean": _estimate_dict(est),
               "near_zero_fraction": float((finals < 0.01).mean()),
               "near_one_fraction": float((finals > 0.99).mean())}
    diagnostics = dict(diag)
    diagnostics.update({"time": run.time, "dt": run.dt,
                        "replicates": run.replicates, "x0": run.x0})
    return results, diagnostics, {
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
    return results, diagnostics, {
        "dual_ctmc": (("replicate", "final_state", "returns_to_one",
                       "escaped"),
                      (np.arange(run.replicates), runs.final,
                       runs.returns_to_one, runs.escaped))}


def _cmd_duality_limit(cfg: Config, rng: np.random.Generator):
    params = cfg.limit_params()
    run = cfg.run
    check = moment_duality_check(params, run.x, run.sample_size, run.time,
                                 run.dt, run.replicates, rng)
    results = {"verdict": check.verdict,
               "lhs": _estimate_dict(check.lhs),
               "rhs": _estimate_dict(check.rhs),
               "gap": check.gap, "tolerance": check.tolerance}
    diagnostics = {"combined_se": check.combined_se, "x": run.x,
                   "order": run.sample_size, "time": run.time, "dt": run.dt}
    if check.verdict == "inconclusive":
        diagnostics["reason"] = ("escaped dual chains decide the verdict: "
                                 "scored 0, as in rhs, and scored "
                                 "x^(cap + 1) the check reads differently")
    return results, diagnostics, {}


def _cmd_kappa_star(cfg: Config, rng: np.random.Generator):
    params = cfg.limit_params()
    if params.xi is None:
        raise ConfigError("kappa-star needs a jump measure "
                          "(model.xi.family != none)", key="model.xi.family")
    beta = params.offspring.mean_extra
    exact, reason = kappa_star(params)
    if reason is not None:
        # kappa* = inf: no finite threshold to check
        return ({"mean_extra": beta, "verdict": "not-applicable"},
                {"warnings": [reason]}, {})
    check = compare(kappa_star_quadrature(params), McEstimate.exact(exact))
    results = {"estimate": _estimate_dict(check.lhs), "mean_extra": beta,
               "closed_form": exact, "gap": check.gap,
               "verdict": check.verdict}
    return results, {"warnings": []}, {}


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
    return results, diagnostics, {}


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
        return {"verdict": "inconclusive"}, diagnostics, {}
    results = {"probability": _estimate_dict(est), "regime": probe.verdict}
    return results, diagnostics, {}


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
    "kappa-star": (_cmd_kappa_star, "compute the fixation threshold for "
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


def _column_text(column, end: str) -> np.ndarray:
    """A numeric column as CSV cells, each followed by ``end``: repr for
    floats, str for ints, 0/1 for bools. Each distinct value is formatted
    once and its text indexed back out; a float column is keyed on its bit
    pattern, because -0.0 and 0.0 compare equal but format differently."""
    column = np.asarray(column)
    if column.dtype == bool:
        column = column.astype(np.int64)
    if column.dtype.kind == "f":
        keys = np.ascontiguousarray(column, dtype=np.float64).view(np.int64)
        unique, inverse = np.unique(keys, return_inverse=True)
        values, fmt = unique.view(np.float64).tolist(), repr
    else:
        unique, inverse = np.unique(column, return_inverse=True)
        values, fmt = unique.tolist(), str
    return np.array([fmt(v) + end for v in values], dtype=object)[inverse]


def _write_csv(fh, header, columns) -> None:
    """Write a table given as equal-length numeric columns, ``_CSV_CHUNK``
    rows at a time as one string each, so that the text held in memory
    stays small whatever the table's length. Numeric cells hold no comma,
    quote or newline, so nothing is quoted."""
    fh.write(",".join(header) + "\n")
    ends = [","] * (len(columns) - 1) + ["\n"]
    for start in range(0, len(columns[0]), _CSV_CHUNK):
        cells = [_column_text(column[start:start + _CSV_CHUNK], end)
                 for column, end in zip(columns, ends)]
        # row-major order of the (rows, columns) cell array is file order
        fh.write("".join(np.stack(cells, axis=1).ravel().tolist()))


def _cell_text(value) -> str:
    """One report value as a CSV cell, by the rule of ``_column_text``."""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_report_csv(fh, report: dict) -> None:
    """The report as a (key, value) table: nested keys joined by dots,
    list values joined by spaces, free text quoted by ``csv.writer``."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(("key", "value"))

    def flatten(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                flatten(f"{prefix}.{k}" if prefix else str(k), obj[k])
        else:
            items = obj if isinstance(obj, list) else [obj]
            writer.writerow((prefix, " ".join(map(_cell_text, items))))

    flatten("", report)


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
        results, diagnostics, tables = handler(cfg, rng)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = {"command": args.command, "config_hash": cfg.hash(),
              "seed": cfg.run.seed, "results": results,
              "diagnostics": diagnostics}
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
    failed = results.get("verdict") in ("fail", "inconclusive")
    return EXIT_FAIL if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
