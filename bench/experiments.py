"""Experiment configs, invocations and predicted verdicts for the benchmark.

Every experiment is a list of ``cannings`` CLI invocations.  Each
invocation is one operation: it fails when it raises, when its exit code
disagrees with its report, or when it misses the verdict predicted here.

A workload runs all eleven experiments, so that every end-to-end metric
exists on every workload.  The workload's own experiments (its *focus*)
run at full size; the others run at ``BACKGROUND`` of their replicate
counts, except the Monte Carlo checks, which always run at full size.

The three Monte Carlo checks compare two estimates at 3 standard errors,
so at a random seed they miss by chance (measured over seeds 1 to 300:
``duality-limit`` at 60 replicates 2 misses, ``kappa-star`` 3,
``duality-discrete`` none).  A benchmark run must not fail by chance,
so they run at ``MC_SEED``, not at the run's seed; every other
invocation takes the run's seed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

BACKGROUND = 0.4
SMOKE = 0.01
MC_SEED = 1         # the seed of every 3-standard-error check

# c10-shaped finite population: N = 50, K in {1, 2} with P(K = 2) = 0.1,
# extreme events with probability 0.1 from Lambda = delta_{0.5}
FINITE_CFG = """\
model.kind = discrete
model.pop_size = 50
model.extreme_prob = 0.1
model.selection.family = explicit
model.selection.pmf = 0.9 0.1
model.xi.family = lambda_dirac
model.xi.y = 0.5
run.seed = 0
run.x = 0.88
run.x0 = 0.88
run.sample_size = 12
run.generations = 10
"""

# small enough for the exact kernels: N = 6, atoms of support <= 3
EXACT_CFG = """\
model.kind = discrete
model.pop_size = 6
model.extreme_prob = 0.2
model.selection.family = geometric
model.selection.param = 0.1
model.xi.family = finite_atomic
model.xi.atoms = 1.0: 0.3 0.2 0.1 | 1.0: 0.5
run.seed = 0
run.generations = 10
run.x = {x}
run.sample_size = {n}
"""

# Lambda = delta_{0.5}, no diffusion, one extra parent: kappa* = 4 ln 2
DIRAC_CFG = """\
model.kind = limit
model.selection_rate = {kappa}
model.kingman_rate = 0.0
model.offspring.family = delta
model.offspring.value = 1
model.xi.family = lambda_dirac
model.xi.y = 0.5
run.seed = 0
run.n0 = 2
run.time = {horizon}
run.cap = {cap}
run.burn_in = 50
run.x = 0.5
run.x0 = 0.5
"""

# the alpha = 1.5 Beta-coalescent with diffusion and geometric branching
BETA_CFG = """\
model.kind = limit
model.selection_rate = 1.0
model.kingman_rate = 1.0
model.offspring.family = geometric
model.offspring.param = 0.5
model.xi.family = lambda_beta
model.xi.a = 0.5
model.xi.b = 1.5
model.jump_floor = 0.05
run.seed = 0
run.time = 1.0
run.n0 = 2
run.x = 0.5
run.x0 = 0.5
run.sample_size = 2
"""

CONFIGS = {
    "finite": FINITE_CFG,
    **{f"exact_x{i}_n{n}": EXACT_CFG.format(x=i / 6, n=n)
       for i in range(7) for n in range(1, 7)},
    "dirac_k1_h1000": DIRAC_CFG.format(kappa=1.0, horizon=1000.0, cap=10_000),
    # the work to reach the cap varies a lot between replicates, so a
    # lower cap buys more replicates per second and a steadier time
    "dirac_k6_h1000": DIRAC_CFG.format(kappa=6.0, horizon=1000.0, cap=1000),
    "dirac_k1_h200": DIRAC_CFG.format(kappa=1.0, horizon=200.0, cap=10_000),
    "dirac_k6_h2": DIRAC_CFG.format(kappa=6.0, horizon=2.0, cap=10_000),
    "beta": BETA_CFG,
}
EXACT_KEYS = [k for k in CONFIGS if k.startswith("exact_")]


def write_configs(directory: str) -> dict[str, str]:
    """Write every config once; returns name -> path."""
    paths = {}
    for name, text in CONFIGS.items():
        path = os.path.join(directory, f"{name}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[name] = path
    return paths


# ---------------------------------------------------------------------------
# verdicts: report -> (passed, gap over tolerance or None)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _estimate_ok(est) -> bool:
    return _finite(est["mean"], est["std_error"])


def _over(gap: float, tolerance: float) -> float:
    if tolerance > 0.0:
        return gap / tolerance
    return 0.0 if gap == 0.0 else math.inf


def _check(mode: str):
    def verdict(report):
        res = report["results"]
        ok = res["verdict"] == "pass" and res["mode"] == mode
        return ok, _over(res["gap"], res["tolerance"])
    return verdict


def _limit_check(report):
    res = report["results"]
    ok = (res["verdict"] == "pass" and _estimate_ok(res["lhs"])
          and _estimate_ok(res["rhs"]))
    return ok, _over(res["gap"], res["tolerance"])


def _kappa_check(report):
    res = report["results"]
    ok = res["verdict"] == "pass" and _estimate_ok(res["estimate"])
    return ok, _over(res["gap"], 3.0 * res["estimate"]["std_error"])


def _estimate_verdict(report):
    return _estimate_ok(report["results"]["final_mean"]), None


def _recurrent(report):
    res = report["results"]
    return (res["verdict"] == "recurrent-looking"
            and res["escape_fraction"] == 0.0), None


def _escaping(report):
    return report["results"]["verdict"] == "escaping", None


def _fixation(report):
    res = report["results"]
    p = res["probability"]["mean"]
    return (res["regime"] == "recurrent-looking" and _finite(p)
            and 0.0 <= p <= 1.0), None


# ---------------------------------------------------------------------------
# experiments


@dataclass(frozen=True)
class Experiment:
    name: str                    # metric is f"{name}_s"
    command: str
    config: str | None           # None: the exact sweep over EXACT_KEYS
    replicates: int              # full-size count (invocations for kappa-star)
    verdict: Callable            # report -> (passed, gap over tolerance)
    statistical: bool = False    # a Monte Carlo check at 3 standard errors
    chain: bool = False          # runs the dual chain (replayed when traced)
    tables: tuple[str, ...] = field(default=())
    seeds: int = 1               # invocations at seed, seed + 1, ...

    def invocations(self, paths: dict[str, str], seed: int, scale: float,
                    mc_seed: int = MC_SEED) -> list[tuple[str, ...]]:
        """CLI argument lists, without ``--out``."""
        if self.statistical:
            seed = mc_seed
        if self.config is None:
            # the exact sweep scales by taking every k-th grid point
            stride = max(1, round(1.0 / scale))
            return [(self.command, "--config", paths[key], "--seed", str(seed))
                    for key in EXACT_KEYS[::stride]]
        if self.name == "kappa_star":
            # repeat the 10^6-draw invocation at the same seed
            draws = 100_000 if scale <= SMOKE else 1_000_000
            count = max(1, round(self.replicates * scale))
            return [(self.command, "--config", paths[self.config],
                     "--seed", str(seed), "--replicates", str(draws))] * count
        # a 3-SE check needs enough replicates for its normal approximation
        reps = max(20 if self.statistical else 2, round(self.replicates * scale))
        return [(self.command, "--config", paths[self.config],
                 "--seed", str(seed + j), "--replicates", str(reps))
                for j in range(self.seeds)]


EXPERIMENTS = [
    Experiment("duality_mc", "duality-discrete", "finite", 700,
               _check("mc"), statistical=True),
    Experiment("duality_exact", "duality-discrete", None, 0, _check("exact")),
    Experiment("forward", "forward", "finite", 4000, _estimate_verdict,
               tables=("forward",)),
    Experiment("ancestry", "ancestry", "finite", 600, _estimate_verdict,
               tables=("ancestry",)),
    # the chain's work varies from seed to seed (escape times, return
    # counts), so these average over consecutive seeds
    Experiment("recurrence_recurrent", "recurrence", "dirac_k1_h1000", 10,
               _recurrent, chain=True, seeds=3),
    Experiment("recurrence_escaping", "recurrence", "dirac_k6_h1000", 50,
               _escaping, chain=True, seeds=4),
    Experiment("fixation", "fixation", "dirac_k1_h200", 25, _fixation,
               chain=True, seeds=3),
    Experiment("kappa_star", "kappa-star", "dirac_k1_h1000", 4,
               _kappa_check, statistical=True),
    None,  # the workload's sde experiment, SDE_DIRAC or SDE_BETA
    Experiment("dual_ctmc", "dual-ctmc", "beta", 80, _estimate_verdict,
               chain=True, tables=("dual_ctmc",)),
    Experiment("duality_limit", "duality-limit", "beta", 60, _limit_check,
               statistical=True, chain=True),
]

SDE_DIRAC = Experiment("sde", "sde", "dirac_k6_h2", 1000, _estimate_verdict,
                       tables=("sde_finals",), seeds=2)
SDE_BETA = Experiment("sde", "sde", "beta", 500, _estimate_verdict,
                      tables=("sde_finals",))

# workload -> (focus experiments, its sde experiment)
WORKLOADS = {
    "finite_duality": ({"duality_mc", "duality_exact", "forward", "ancestry"},
                       SDE_BETA),
    "dirac_threshold": ({"recurrence_recurrent", "recurrence_escaping",
                         "fixation", "kappa_star", "sde"}, SDE_DIRAC),
    "beta_limit": ({"sde", "dual_ctmc", "duality_limit"}, SDE_BETA),
}


def workload_plan(workload: str, scale: float = 1.0) -> list[tuple[Experiment, float]]:
    """The workload's experiments in their fixed order, each with its scale."""
    focus, sde = WORKLOADS[workload]
    plan = []
    for exp in EXPERIMENTS:
        exp = exp or sde
        # a 3-SE check keeps its replicates: fewer would make its normal
        # approximation, and so its false-alarm rate, worse
        background = exp.name not in focus and not exp.statistical
        plan.append((exp, scale * (BACKGROUND if background else 1.0)))
    return plan
