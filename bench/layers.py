"""Per-layer metrics from a traced pass, and the dual-chain event replay.

A layer is a module of the ``cannings`` package.  Times are per traced
cycle, from the spans the tracer recorded; counts come from the
tracer's argument hooks, the CLI's output files and reports, and a
replay of every dual-chain run through the public
``dual_chain.simulate(..., record_noops=True)`` with the same seed and
replicate count, which logs each Gillespie event by kind.
"""

from __future__ import annotations

LAYERS = ("cli", "config", "discrete", "selection", "simplex", "limit_sde",
          "dual_chain", "threshold", "mc")

# ROADMAP baseline (2-core sandbox) for the cross-check
ROADMAP = {"ancestral_step_us": 46.0, "us_per_event": 6.6, "sde_step_us": 119.0}

EVENT_KINDS = ("branch", "kingman", "xi", "xi_noop")

# the layer shares kept as metrics: each experiment's main layers, and
# the ones an optimisation of ROADMAP items 2 and 3 should move
SHARES = {
    "duality_mc": ("discrete", "selection", "simplex"),
    "duality_exact": ("discrete", "selection"),
    "forward": ("cli", "discrete"),
    "ancestry": ("cli", "discrete", "selection"),
    "recurrence_recurrent": ("dual_chain",),
    "recurrence_escaping": ("dual_chain",),
    "fixation": ("dual_chain",),
    "kappa_star": ("threshold", "cli"),
    "sde": ("limit_sde", "selection", "simplex"),
    "dual_ctmc": ("cli", "dual_chain", "simplex", "selection"),
    "duality_limit": ("dual_chain", "limit_sde", "simplex", "selection"),
}


def _options(argv) -> dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


def replay_chains(plan) -> dict[str, dict[str, int]]:
    """Event counts by kind for every dual-chain run of one cycle."""
    import numpy as np
    from cannings.config import Config
    from cannings.dual_chain import simulate
    from cannings.limit_sde import simulate_batch

    out = {}
    for exp, invs in plan:
        if not exp.chain:
            continue
        tally = dict.fromkeys(("replicates", "escapes", "returns_to_one")
                              + EVENT_KINDS, 0)
        for args in invs:
            opts = _options(args)
            cfg = Config.from_file(opts["--config"],
                                   {"run.seed": opts["--seed"],
                                    "run.replicates": opts["--replicates"]})
            params, run = cfg.limit_params(), cfg.run
            rng = np.random.default_rng(run.seed)

            def chains(n0, horizon, cap):
                before = dict(tally)
                for _ in range(run.replicates):
                    path = simulate(params, n0, horizon, rng, cap=cap,
                                    record_noops=True)
                    _count_path(path, tally)
                return {k: tally[k] - before[k] for k in tally}

            # consume the generator in the order the CLI command does
            if exp.command in ("recurrence", "dual-ctmc"):
                chains(run.n0, run.time, run.cap)
            elif exp.command == "fixation":
                probe = chains(run.n0, run.time, run.cap)
                if (probe["escapes"] == 0
                        and probe["returns_to_one"] >= 10 * run.replicates):
                    chains(run.n0, run.time, run.cap)   # stationary estimate
            elif exp.command == "duality-limit":
                simulate_batch(params, run.x, run.time, run.dt,
                               run.replicates, rng)
                chains(run.sample_size, run.time, 1_000_000)
            else:
                raise ValueError(f"no replay for {exp.command}")
        out[exp.name] = tally
    return out


def _count_path(path, tally) -> None:
    tally["replicates"] += 1
    tally["escapes"] += int(path.escaped)
    tally["returns_to_one"] += path.returns_to_one
    state = path.initial
    for event in path.events:
        kind = event.kind
        if kind == "xi" and event.state == state:
            kind = "xi_noop"
        tally[kind] += 1
        state = event.state


def chain_seconds(tracer, experiment: str) -> float:
    """Time of the dual chain in one experiment.

    The inclusive time of the outermost public ``dual_chain`` spans,
    leaving out ``xi_event_outcome`` (a per-event helper called by the
    chain) and the forward-limit simulation nested in
    ``moment_duality_check``.  At the parent commit the CLI's
    ``dual-ctmc`` calls the private core directly, so its chain time is
    ``cli`` self time and this returns about 0 for it.
    """
    total = 0.0
    for (exp, parent, span), rec in tracer.spans.items():
        if exp != experiment:
            continue
        in_chain = parent.startswith("dual_chain.")
        if span.startswith("dual_chain.") and not in_chain \
                and span != "dual_chain.xi_event_outcome":
            total += rec[1]
        elif span == "limit_sde.simulate_batch" and in_chain:
            total -= rec[1]
    return total


def _chain_rate(tracer, replays, experiments) -> tuple[float, int]:
    seconds = sum(chain_seconds(tracer, e) for e in experiments)
    events = sum(replays[e][k] for e in experiments for k in EVENT_KINDS)
    return seconds, events


def per_layer(tracer, cycles: int, replays, gaps) -> dict:
    """Metric name -> (value per traced cycle, unit)."""
    tr = tracer
    m = {}

    def per_cycle(value):
        return value / cycles

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    m["cli.self_s"] = (per_cycle(tr.layer_self("cli")), "s")
    m["cli.rows_written"] = (per_cycle(tr.counter("cli.rows_written")), "count")
    m["cli.bytes_written"] = (per_cycle(tr.counter("cli.bytes_written")), "count")
    m["config.load_s"] = (per_cycle(tr.total("config.Config.from_file")), "s")

    anc = tr.total("discrete.ancestral_step")
    m["discrete.ancestral_s"] = (per_cycle(tr.total("discrete.ancestral_trajectories")), "s")
    m["discrete.ancestral_step_us"] = (ratio(anc, tr.calls("discrete.ancestral_step"), 1e6), "us")
    fwd = tr.total("discrete.forward_trajectories")
    m["discrete.forward_s"] = (per_cycle(fwd), "s")
    m["discrete.forward_step_ns"] = (ratio(fwd, tr.counter("discrete.forward_steps"), 1e9), "ns")
    m["discrete.exact_kernel_s"] = (per_cycle(tr.total("discrete.exact_transition_matrices")), "s")
    m["discrete.exact_kernels"] = (per_cycle(tr.calls("discrete.exact_transition_matrices")), "count")
    m["discrete.sampling_probability_calls"] = (per_cycle(tr.calls("discrete.sampling_probability")), "count")
    m["discrete.sampling_probability_s"] = (per_cycle(tr.total("discrete.sampling_probability")), "s")

    for fn in ("pgf", "sample_parent_counts", "branching_drift", "sample_extra"):
        m[f"selection.{fn}_calls"] = (per_cycle(tr.calls(f"selection.{fn}")), "count")
        m[f"selection.{fn}_s"] = (per_cycle(tr.total(f"selection.{fn}")), "s")

    draw_calls = tr.calls("simplex.TruncatedSampler.draw")
    draws = draw_calls + tr.counter("simplex.atom_index_draws")
    draw_s = (tr.total("simplex.TruncatedSampler.draw")
              + tr.total("simplex.TruncatedSampler.draw_atom_indices"))
    m["simplex.sampler_builds"] = (per_cycle(tr.calls("simplex.TruncatedSampler")), "count")
    m["simplex.sampler_build_s"] = (per_cycle(tr.total("simplex.TruncatedSampler")), "s")
    m["simplex.intensity_s"] = (per_cycle(tr.total("simplex.intensity_mass")), "s")
    m["simplex.draws"] = (per_cycle(draws), "count")
    m["simplex.draw_us"] = (ratio(draw_s, draws, 1e6), "us")
    m["simplex.sample_point_calls"] = (per_cycle(tr.calls("simplex.sample_point")), "count")

    batch = tr.total("limit_sde.simulate_batch")
    m["limit_sde.batch_s"] = (per_cycle(batch), "s")
    m["limit_sde.path_steps"] = (per_cycle(tr.counter("limit_sde.path_steps")), "count")
    m["limit_sde.step_us"] = (ratio(batch, tr.counter("limit_sde.batch_steps"), 1e6), "us")
    m["limit_sde.jumps_applied"] = (per_cycle(tr.counter("limit_sde.jumps_applied")), "count")
    m["limit_sde.clamps"] = (per_cycle(tr.counter("limit_sde.clamps")), "count")

    # replays cover one cycle, so their counts are already per cycle
    timed = [e for e in replays if chain_seconds(tr, e) > 0.0]
    seconds, events = _chain_rate(tr, replays, timed)
    m["dual_chain.chain_s"] = (per_cycle(seconds), "s")
    for key in ("replicates", "escapes", "returns_to_one"):
        m[f"dual_chain.{key}"] = (sum(r[key] for r in replays.values()), "count")
    for kind in EVENT_KINDS:
        m[f"dual_chain.events.{kind}"] = (sum(r[kind] for r in replays.values()), "count")
    m["dual_chain.us_per_event"] = (ratio(per_cycle(seconds), events, 1e6), "us")
    xi = sum(r["xi"] + r["xi_noop"] for r in replays.values())
    m["dual_chain.xi_noop_fraction"] = (
        ratio(sum(r["xi_noop"] for r in replays.values()), xi), "ratio")

    kappa = tr.total("threshold.kappa_star_mc")
    m["threshold.kappa_star_s"] = (per_cycle(kappa), "s")
    m["threshold.draws_per_s"] = (ratio(tr.counter("threshold.draws"), kappa), "1/s")
    m["mc.estimates"] = (per_cycle(sum(tr.calls(s) for s in _layer_spans(tr, "mc"))), "count")
    m["mc.estimate_s"] = (per_cycle(tr.layer_self("mc")), "s")

    for name in ("duality_mc", "duality_exact", "kappa_star", "duality_limit"):
        m[f"check.{name}.gap_over_tol"] = (gaps.get(name, 0.0), "ratio")
    table = shares(tr)
    for exp, keep in SHARES.items():
        for layer in keep:
            m[f"share.{exp}.{layer}"] = (table.get(exp, {}).get(layer, 0.0), "ratio")
    return m


def _layer_spans(tracer, layer: str) -> set[str]:
    return {span for _, _, span in tracer.spans if span.split(".")[0] == layer}


def shares(tracer) -> dict[str, dict[str, float]]:
    """Share of each layer's self time in each experiment's traced time.

    ``harness`` is what the benchmark itself spends inside the timed
    region (redirecting the CLI's standard output).
    """
    out = {}
    for exp in tracer.experiments():
        wall = tracer.total("experiment", experiment=exp)
        if wall <= 0.0:
            continue
        row = {layer: tracer.layer_self(layer, exp) / wall for layer in LAYERS}
        row["harness"] = tracer.total("experiment", 2, exp) / wall
        out[exp] = row
    return out


def crosscheck(tracer, cycles: int, replays) -> dict:
    """Unit costs beside the ROADMAP baseline, per experiment."""
    tr = tracer
    out = {"roadmap": ROADMAP}
    calls = tr.calls("discrete.ancestral_step", "ancestry")
    if calls:
        out["ancestral_step_us"] = {
            "ancestry": 1e6 * tr.total("discrete.ancestral_step", experiment="ancestry") / calls}
    per_event = {}
    for exp in replays:
        seconds, events = _chain_rate(tr, replays, [exp])
        if seconds > 0.0 and events:
            per_event[exp] = {"us": 1e6 * seconds / cycles / events, "events": events,
                              "xi_noop": replays[exp]["xi_noop"]}
    out["us_per_event"] = per_event
    steps = tr.counter("limit_sde.batch_steps", "sde")
    if steps:
        out["sde_step_us"] = {
            "sde": 1e6 * tr.total("limit_sde.simulate_batch", experiment="sde") / steps,
            "paths": tr.counter("limit_sde.path_steps", "sde") / steps}
    xi_calls = tr.calls("dual_chain.xi_event_outcome")
    xi_replayed = sum(r["xi"] + r["xi_noop"] for r in replays.values())
    out["xi_candidates"] = {"traced_per_cycle": xi_calls / cycles,
                            "replayed": xi_replayed}
    return out


def crosscheck_lines(check: dict) -> list[str]:
    road = check["roadmap"]
    lines = []
    if "ancestral_step_us" in check:
        lines.append(f"ancestral step: {check['ancestral_step_us']['ancestry']:.1f} us "
                     f"(ROADMAP {road['ancestral_step_us']:g} us)")
    for exp, row in check["us_per_event"].items():
        lines.append(f"dual chain, {exp}: {row['us']:.2f} us per event, counting "
                     f"all {row['events']} Gillespie events incl. {row['xi_noop']} "
                     f"no-op xi candidates (ROADMAP {road['us_per_event']:g} us)")
    if "sde_step_us" in check:
        row = check["sde_step_us"]
        lines.append(f"Euler step: {row['sde']:.1f} us at {row['paths']:.0f} paths "
                     f"(ROADMAP {road['sde_step_us']:g} us at 1000 paths)")
    xi = check["xi_candidates"]
    lines.append(f"xi candidates: {xi['traced_per_cycle']:.0f} traced per cycle, "
                 f"{xi['replayed']} replayed")
    return lines
