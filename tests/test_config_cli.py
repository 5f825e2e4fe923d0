import ast
import csv
import hashlib
import importlib.util
import inspect
import io
import json
import math
import pathlib
import re
import sys
import textwrap

import numpy as np
import pytest

from cannings import (Config, ConfigError, FiniteAtomic, SelectionLaw,
                      SimplexPoint, StickBreaking, as_atoms, explicit_family,
                      neutral_family, offspring_pmf)
from cannings import cli, config
from cannings.cli import main

DISCRETE_CFG = """
# finite-model experiment
model.kind = discrete
model.pop_size = 4
model.extreme_prob = 0.2
model.selection.family = geometric
model.selection.param = 0.1
model.xi.family = lambda_dirac
model.xi.y = 0.5
run.seed = 7
run.replicates = 5
run.generations = 3
"""

LIMIT_CFG = """
model.kind = limit
model.selection_rate = 1.0
model.kingman_rate = 0.0
model.offspring.family = delta
model.offspring.value = 1
model.xi.family = lambda_dirac
model.xi.y = 0.5
model.xi.mass = 1.0
run.seed = 3
run.replicates = 50
run.time = 2.0
run.dt = 0.01
"""


# the alpha = 1.5 Beta-coalescent with diffusion and geometric branching
BETA_CFG = """
model.kind = limit
model.selection_rate = 1.0
model.kingman_rate = 1.0
model.offspring.family = geometric
model.offspring.param = 0.5
model.xi.family = lambda_beta
model.xi.a = 0.5
model.xi.b = 1.5
model.jump_floor = 0.05
run.seed = 5
run.replicates = 12
run.time = 1.0
run.n0 = 2
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config parsing


def test_config_defaults_and_accessors():
    cfg = Config.from_text("model.kind = limit\nrun.seed = 1\n"
                           "model.offspring.family = delta\n"
                           "model.offspring.value = 2\n")
    run = cfg.run
    assert run.seed == 1
    assert run.replicates == 1000
    assert run.dt == pytest.approx(1e-3)
    assert run.x0 == 0.5 and run.x == 0.5
    assert run.sample_size == 2 and run.n0 == 2
    assert cfg.output_dir is None
    params = cfg.limit_params()
    assert params.xi is None
    assert params.offspring.extra_pmf == (0.0, 1.0)


def test_config_hash_ignores_line_order_and_comments():
    a = Config.from_text("model.kind = limit\nrun.seed = 5\n# note\n")
    b = Config.from_text("run.seed = 5\nmodel.kind = limit\n")
    assert a.hash() == b.hash()
    c = Config.from_text("run.seed = 6\nmodel.kind = limit\n")
    assert a.hash() != c.hash()


def test_config_rejects_bad_inputs():
    with pytest.raises(ConfigError, match="run.seed"):
        Config.from_text("model.kind = limit\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        Config.from_text("model.kind = limit\nrun.seed = 1\nmodel.bogus = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        Config.from_text("model.kind = limit\nrun.seed = 1\nrun.seed = 2\n")
    with pytest.raises(ConfigError, match="model.pop_size"):
        Config.from_text("model.kind = discrete\nrun.seed = 1\n"
                         "model.pop_size = many\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        Config.from_text("model.kind = limit\nrun.seed = 1\nnonsense\n")
    with pytest.raises(ConfigError, match="empty value"):
        Config.from_text("model.kind = limit\nrun.seed =\n")
    with pytest.raises(ConfigError, match="model.kind"):
        Config.from_text("model.kind = fancy\nrun.seed = 1\n")


@pytest.mark.parametrize("key, value", [
    ("run.replicates", "0"), ("run.generations", "0"), ("run.cap", "0"),
    ("run.sample_size", "0"), ("run.n0", "0"), ("run.time", "0"),
    ("run.dt", "-0.1"), ("run.burn_in", "-1"), ("run.time", "nan")])
def test_config_run_bounds(key, value):
    cfg = Config.from_text(f"model.kind = limit\nrun.seed = 1\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=key) as info:
        cfg.run
    assert info.value.key == key


def documented_run_ranges() -> dict[str, tuple[str, str]]:
    """run.* key -> (type, range) from the key list of the config docstring."""
    found = re.findall(r"^ +(run\.\w+) +(int|float) +(>= \S+|> \S+|in \[[^]]*\])",
                       config.__doc__, flags=re.M)
    return {key: (kind, bound) for key, kind, bound in found}


def test_docstring_documents_every_run_key():
    assert {key: kind for key, (kind, _) in documented_run_ranges().items()} \
        == config._RUN_TYPES


def just_outside(kind: str, bound: str) -> list:
    """The values of the key's type next to the documented range, outside it."""
    num = {"int": int, "float": float}[kind]

    def step(value, way):
        return value + way if kind == "int" else math.nextafter(value, way * math.inf)

    op, _, rest = bound.partition(" ")
    if op == ">=":
        return [step(num(rest), -1)]
    if op == ">":
        return [num(rest)]
    cap = config.RunSettings(seed=0).cap
    low, high = (cap if b == "cap" else num(b) for b in rest.strip("[]").split(", "))
    return [step(low, -1), step(high, 1)]


@pytest.mark.parametrize("key", sorted(documented_run_ranges()))
def test_config_refuses_values_outside_documented_range(key):
    for value in just_outside(*documented_run_ranges()[key]):
        with pytest.raises(ConfigError) as info:
            Config.from_text("model.kind = limit\nrun.seed = 1\n",
                             {key: repr(value)}).run
        assert info.value.key == key and key in str(info.value), value


SELECTION_GEOMETRIC = "model.selection.family = geometric\nmodel.selection.param = 0.1"
OFFSPRING_DELTA = "model.offspring.family = delta\nmodel.offspring.value = 1"


@pytest.mark.parametrize("base, old, new, outcome", [
    pytest.param(DISCRETE_CFG, SELECTION_GEOMETRIC,
                 "model.selection.family = explicit\nmodel.selection.pmf = 0.9 0.1",
                 explicit_family((0.9, 0.1)), id="selection-pmf"),
    pytest.param(DISCRETE_CFG, SELECTION_GEOMETRIC,
                 "model.selection.family = neutral", neutral_family(),
                 id="selection-neutral"),
    pytest.param(DISCRETE_CFG, SELECTION_GEOMETRIC,
                 "model.selection.family = explicit\nmodel.selection.pmf = 1.0",
                 neutral_family(), id="selection-pmf-all-at-one"),
    pytest.param(LIMIT_CFG, OFFSPRING_DELTA,
                 "model.offspring.family = pmf\nmodel.offspring.pmf = 0.5 0.5",
                 offspring_pmf((0.5, 0.5)), id="offspring-pmf"),
    pytest.param(DISCRETE_CFG, SELECTION_GEOMETRIC,
                 "model.selection.family = explicit\nmodel.selection.pmf = 0.9 x",
                 "'model.selection.pmf' must be whitespace-separated numbers",
                 id="selection-pmf-not-numeric"),
    pytest.param(LIMIT_CFG, OFFSPRING_DELTA,
                 "model.offspring.family = pmf\nmodel.offspring.pmf = one",
                 "'model.offspring.pmf' must be whitespace-separated numbers",
                 id="offspring-pmf-not-numeric"),
    pytest.param(DISCRETE_CFG, SELECTION_GEOMETRIC, "model.selection.family = bogus",
                 "'model.selection.family' must be one of", id="unknown-family"),
    pytest.param(DISCRETE_CFG, SELECTION_GEOMETRIC,
                 "model.selection.family = explicit\nmodel.selection.pmf = 0.5 0.2",
                 "invalid model.selection block", id="invalid-selection"),
    pytest.param(DISCRETE_CFG, "model.xi.y = 0.5", "model.xi.y = 1.5",
                 "invalid model.xi block", id="invalid-xi"),
    pytest.param(DISCRETE_CFG, "model.xi.family = lambda_dirac",
                 "model.xi.family = bogus", "'model.xi.family' must be one of",
                 id="unknown-xi-family"),
    pytest.param(DISCRETE_CFG, "model.pop_size = 4", "model.pop_size = 1",
                 "invalid discrete model: pop_size", id="invalid-discrete"),
    pytest.param(LIMIT_CFG, "model.selection_rate = 1.0",
                 "model.selection_rate = -1.0",
                 "invalid limit model: selection_rate", id="invalid-limit"),
])
def test_config_model_blocks(tmp_path, capsys, base, old, new, outcome):
    # a pmf parses into its law; every other case is a config error that
    # names its key (the model errors name the parameter)
    text = base.replace(old, new)
    assert text != base
    cfg = Config.from_text(text)
    if isinstance(outcome, SelectionLaw):
        law = (cfg.discrete_params().parent_law if cfg.kind == "discrete"
               else cfg.limit_params().offspring)
        assert law == outcome
        return
    command = "forward" if cfg.kind == "discrete" else "sde"
    assert main([command, "--config", write_cfg(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {outcome}"), captured.err


@pytest.mark.parametrize("base, key, value", [
    pytest.param(base, key, value, id=key) for base, key, value in (
        (DISCRETE_CFG, "model.pop_size", "1"),
        (DISCRETE_CFG, "model.extreme_prob", "1.5"),
        (DISCRETE_CFG, "model.selection.param", "1.5"),
        (LIMIT_CFG, "model.selection_rate", "-1"),
        (LIMIT_CFG, "model.kingman_rate", "-1"),
        (LIMIT_CFG, "model.jump_floor", "2"),
        (LIMIT_CFG, "model.offspring.value", "0"),
        (LIMIT_CFG, "model.xi.y", "1.5"),
        (BETA_CFG, "model.xi.a", "-1"))])
def test_model_errors_name_their_key(tmp_path, capsys, base, key, value):
    # a model parameter out of range is a config error (exit 2) that
    # names the parameter's own key
    lines = [line for line in base.splitlines()
             if not line.startswith(f"{key} =")]
    text = "\n".join(lines + [f"{key} = {value}"]) + "\n"
    cfg = Config.from_text(text)
    with pytest.raises(ConfigError) as info:
        if cfg.kind == "discrete":
            cfg.discrete_params()
        else:
            cfg.limit_params()
    assert info.value.key == key, str(info.value)
    command = "forward" if cfg.kind == "discrete" else "sde"
    assert main([command, "--config", write_cfg(tmp_path, text)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("base, key", [
    pytest.param(base, key, id=key) for base, key in (
        (LIMIT_CFG, "model.kind"),
        (DISCRETE_CFG, "model.pop_size"),
        (DISCRETE_CFG, "model.selection.family"),
        (DISCRETE_CFG, "model.selection.param"),
        (LIMIT_CFG, "model.offspring.value"),
        (LIMIT_CFG, "model.xi.y"),
        (BETA_CFG, "model.xi.b"))])
def test_cli_missing_model_key_is_named(tmp_path, capsys, base, key):
    # a key the model needs and the config lacks is a config error
    # (exit 2) that names the key
    text = "".join(line for line in base.splitlines(keepends=True)
                   if not line.startswith(f"{key} ="))
    assert text != base
    command = "forward" if "model.kind = discrete" in base else "sde"
    assert main([command, "--config", write_cfg(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: missing required key '{key}'\n"


def test_config_empty_pmf_names_its_key():
    # a config file cannot give an empty value, an override can
    cfg = Config.from_text(
        DISCRETE_CFG.replace(SELECTION_GEOMETRIC,
                             "model.selection.family = explicit"),
        {"model.selection.pmf": " "})
    with pytest.raises(ConfigError, match="'model.selection.pmf' is empty") \
            as info:
        cfg.discrete_params()
    assert info.value.key == "model.selection.pmf"


def test_cli_forward_runs_a_neutral_model(tmp_path, capsys):
    text = DISCRETE_CFG.replace(SELECTION_GEOMETRIC,
                                "model.selection.family = neutral")
    assert main(["forward", "--config", write_cfg(tmp_path, text)]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "forward"


def test_config_stick_breaking_passes_only_the_keys_it_sets():
    # the defaults are StickBreaking's own
    base = ("model.kind = limit\nrun.seed = 1\n"
            "model.xi.family = stick_breaking\n")
    assert Config.from_text(base).xi_measure() == StickBreaking()
    cfg = Config.from_text(base + "model.xi.stick_law = beta\n"
                           "model.xi.a = 2\nmodel.xi.truncation_tol = 1e-6\n"
                           "model.xi.mass = 3\n")
    assert cfg.xi_measure() == StickBreaking("beta", 2.0, 1.0, 3.0, 1e-6)


def test_every_model_field_message_has_its_key():
    # config finds the key of a model error by its message's first word,
    # so every ValueError the model constructors and the measure builders
    # raise starts with a field of config._FIELD_KEYS; a reworded message
    # fails here instead of losing its key.  "Beta parameters" names
    # model.xi.a or model.xi.b by their values, and config normalizes
    # xi_hat itself.
    from cannings.discrete import DiscreteParams
    from cannings.limit_sde import LimitParams
    from cannings.simplex import LambdaBeta, LambdaDirac, StickBreaking
    words = set()
    for builder in (DiscreteParams, LimitParams, LambdaDirac, LambdaBeta,
                    StickBreaking):
        tree = ast.parse(textwrap.dedent(inspect.getsource(builder)))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "ValueError"):
                words.add(node.exc.args[0].value.split(" ", 1)[0])
    assert words - {"Beta", "xi_hat"} == set(config._FIELD_KEYS)


def test_config_atoms_parsing():
    cfg = Config.from_text(
        "model.kind = limit\nrun.seed = 1\n"
        "model.offspring.family = delta\nmodel.offspring.value = 1\n"
        "model.xi.family = finite_atomic\n"
        "model.xi.atoms = 2.0: 0.3 0.2 | 1.0: 0.5\n")
    xi = cfg.xi_measure()
    assert isinstance(xi, FiniteAtomic)
    (w1, z1), (w2, z2) = xi.atoms
    assert (w1, z1.masses) == (2.0, (0.3, 0.2))
    assert (w2, z2.masses) == (1.0, (0.5,))
    # masses may be listed in any order; they are ranked on parse
    cfg = Config.from_text("model.kind = limit\nrun.seed = 1\n"
                           "model.xi.family = finite_atomic\n"
                           "model.xi.atoms = 2.0: 0.2 0.3\n")
    assert cfg.xi_measure().atoms[0][1].masses == (0.3, 0.2)
    with pytest.raises(ConfigError, match="bad atom"):
        Config.from_text("model.kind = limit\nrun.seed = 1\n"
                         "model.xi.family = finite_atomic\n"
                         "model.xi.atoms = 2.0: 0.6 0.9\n"  # sum > 1
                         ).xi_measure()
    with pytest.raises(ConfigError, match="weight: z1 z2"):
        Config.from_text("model.kind = limit\nrun.seed = 1\n"
                         "model.xi.family = finite_atomic\n"
                         "model.xi.atoms = 0.5 0.5\n"  # no weight separator
                         ).xi_measure()


def test_finite_atomic_refuses_mass():
    # the atom weights carry the mass: a mass key would be ignored
    cfg = Config.from_text("model.kind = limit\nrun.seed = 1\n"
                           "model.xi.family = finite_atomic\n"
                           "model.xi.atoms = 1.0: 0.5\nmodel.xi.mass = 7.0\n")
    with pytest.raises(ConfigError, match="atom weights") as info:
        cfg.xi_measure()
    assert info.value.key == "model.xi.mass"


def test_config_kind_mismatch():
    cfg = Config.from_text(DISCRETE_CFG)
    with pytest.raises(ConfigError, match="model.kind = limit"):
        cfg.limit_params()
    with pytest.raises(ConfigError, match="model.kind = discrete"):
        Config.from_text(LIMIT_CFG).discrete_params()


def test_discrete_measure_is_normalized():
    cfg = Config.from_text(DISCRETE_CFG.replace("model.xi.y = 0.5",
                                                "model.xi.y = 0.5\n"
                                                "model.xi.mass = 5.0"))
    params = cfg.discrete_params()
    assert as_atoms(params.xi_hat) == ((1.0, SimplexPoint((0.5,))),)


# ---------------------------------------------------------------------------
# CLI behaviour


def test_cli_missing_seed(tmp_path, capsys):
    path = write_cfg(tmp_path, "model.kind = discrete\nmodel.pop_size = 4\n")
    code = main(["forward", "--config", path])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "run.seed" in err


def test_cli_unknown_key_and_missing_file(tmp_path, capsys):
    path = write_cfg(tmp_path, DISCRETE_CFG + "model.mystery = 1\n")
    assert main(["forward", "--config", path]) == 2
    assert "model.mystery" in capsys.readouterr().err
    assert main(["forward", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_cli_usage_errors(capsys):
    assert main(["not-a-command"]) == 2
    assert main(["forward"]) == 2  # --config is required
    capsys.readouterr()


def test_cli_kind_mismatch_exit(tmp_path, capsys):
    path = write_cfg(tmp_path, LIMIT_CFG)
    assert main(["forward", "--config", path]) == 2
    assert "model.kind" in capsys.readouterr().err


def test_cli_forward_report_and_artifacts(tmp_path, capsys):
    path = write_cfg(tmp_path, DISCRETE_CFG)
    out = tmp_path / "artifacts"
    code = main(["forward", "--config", path, "--out", str(out)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"command", "config_hash", "seed", "results",
                           "diagnostics"}
    assert report["command"] == "forward" and report["seed"] == 7
    est = report["results"]["final_mean"]
    assert set(est) == {"mean", "std_error", "replicates", "interval"}
    assert est["replicates"] == 5
    assert report["results"]["fixed_fraction"] + \
        report["results"]["lost_fraction"] <= 1.0
    # artifacts: the JSON report plus one CSV per table
    report_disk = json.loads((out / "report.json").read_text())
    assert report_disk == report
    csv_lines = (out / "forward.csv").read_text().splitlines()
    assert csv_lines[0] == "replicate,generation,frequency"
    assert len(csv_lines) == 1 + 5 * 4  # header + replicates * (gens + 1)


def test_cli_byte_determinism(tmp_path, capsys):
    path = write_cfg(tmp_path, DISCRETE_CFG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["forward", "--config", path, "--out", str(out)]) == 0
        outs.append(out)
    capsys.readouterr()
    assert (outs[0] / "report.json").read_bytes() == \
        (outs[1] / "report.json").read_bytes()
    assert (outs[0] / "forward.csv").read_bytes() == \
        (outs[1] / "forward.csv").read_bytes()


def test_cli_overrides_change_run(tmp_path, capsys):
    path = write_cfg(tmp_path, DISCRETE_CFG)
    assert main(["forward", "--config", path, "--seed", "99",
                 "--replicates", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 99
    assert report["diagnostics"]["replicates"] == 2
    assert report["results"]["final_mean"]["replicates"] == 2


def test_cli_csv_stdout_format(tmp_path, capsys):
    path = write_cfg(tmp_path, DISCRETE_CFG)
    assert main(["ancestry", "--config", path, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "key,value"
    keyed = dict(line.split(",", 1) for line in lines[1:])
    assert keyed["command"] == "ancestry"
    assert keyed["seed"] == "7"


# a pure death chain from n0 = 2: the recurrence probe is inconclusive
DEATH_CFG = ("model.kind = limit\nmodel.selection_rate = 0.0\n"
             "model.kingman_rate = 1.0\nmodel.offspring.family = delta\n"
             "model.offspring.value = 1\nmodel.xi.family = none\n"
             "run.seed = 2\nrun.replicates = 10\nrun.time = 50.0\n")

# sha256 of every CSV artifact and of two --format csv reports (floats,
# ints, bools, a list, and a fixation reason that needs CSV quoting),
# recorded when every cell went through a per-value isinstance chain;
# dual_ctmc.csv (LIMIT_CFG is a delta_0.5 chain) re-recorded when one-group
# atoms got merge-only xi events, which changed the chain's stream;
# sde_finals.csv (LIMIT_CFG has sigma = 0 and one extra parent) re-recorded
# when such paths left the Euler scheme for the exact jump-to-jump flow;
# ancestry.csv re-recorded when the ancestral chain took one step for all
# replicates at once, which changed its stream; forward.csv, ancestry.csv,
# sde_finals.csv and forward_report.csv (delta_0.5 models) re-recorded
# when one-atom point draws stopped consuming uniforms
CSV_DIGESTS = {
    "forward.csv":
        "9531f5134c7fe928dc68d0ba12e9abac58e6521d88c9d8f4a57e3f647c11e3c4",
    "ancestry.csv":
        "1181c7786c0e65c38c3fd3ba0bf7d74a58844e20c88b5c85d8f0c76eb6adea4e",
    "sde_finals.csv":
        "fac7fdfe95af37198431f08c98857c72c71d7e9e9123634321ea1610428f0266",
    "dual_ctmc.csv":
        "f137d40e7d4429fa421f2d2714f89c700d619b0aa2a86489cb81851c59b1ee7a",
    "forward_report.csv":
        "d252a586c4fefd5e53f0ccbd6bd9bb98bda3c40da5c33f418c48e636dcd77770",
    "fixation_report.csv":
        "1d6474d5fd867064be524f7a10832ea034d50fce70d227c8d34b8c288e5ec103",
}


def test_cli_csv_bytes_pinned(tmp_path, capsys):
    discrete = write_cfg(tmp_path, DISCRETE_CFG, "discrete.cfg")
    limit = write_cfg(tmp_path, LIMIT_CFG, "limit.cfg")
    death = write_cfg(tmp_path, DEATH_CFG, "death.cfg")
    out = tmp_path / "out"
    for command, path in (("forward", discrete), ("ancestry", discrete),
                          ("sde", limit), ("dual-ctmc", limit)):
        assert main([command, "--config", path, "--replicates", "40",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    blobs = {name: (out / name).read_bytes() for name in
             ("forward.csv", "ancestry.csv", "sde_finals.csv", "dual_ctmc.csv")}
    assert main(["forward", "--config", discrete, "--format", "csv"]) == 0
    blobs["forward_report.csv"] = capsys.readouterr().out.encode()
    assert main(["fixation", "--config", death, "--format", "csv"]) == 1
    report = capsys.readouterr().out
    assert ('diagnostics.reason,"recurrence probe is inconclusive (escape '
            'fraction 0.000, mean returns 1.0); cannot decide the regime"\n'
            in report)
    blobs["fixation_report.csv"] = report.encode()
    assert {name: hashlib.sha256(blob).hexdigest()
            for name, blob in blobs.items()} == CSV_DIGESTS


# sha256 of forward.csv at 1100 replicates (4400 rows), a table longer than
# one cli._CSV_CHUNK, recorded when every row went through csv.writer, and
# again when one-atom point draws stopped consuming uniforms
FORWARD_CHUNKED_DIGEST = \
    "ffad175488c1e05cb4d1b28122673818a0703eebe8769adc1883e22e24fedd3f"


def test_cli_chunked_csv_bytes_pinned(tmp_path, capsys):
    path = write_cfg(tmp_path, DISCRETE_CFG)
    assert main(["forward", "--config", path, "--replicates", "1100",
                 "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    blob = (tmp_path / "out" / "forward.csv").read_bytes()
    assert blob.count(b"\n") == 4401 > cli._CSV_CHUNK
    assert hashlib.sha256(blob).hexdigest() == FORWARD_CHUNKED_DIGEST


def _reference_csv(header, columns) -> str:
    """The table written row by row through csv.writer, each cell formatted
    on its own: repr for floats, str for ints, 0/1 for bools."""
    def cell(value):
        if isinstance(value, bool):
            return str(int(value))
        return repr(value) if isinstance(value, float) else str(value)

    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*([cell(v) for v in c.tolist()] for c in columns)))
    return fh.getvalue()


@pytest.mark.parametrize("rows", [0, 1, 4096, 4097, 8193])
def test_write_csv_matches_per_cell_reference(rows):
    info = np.iinfo(np.int64)
    # the odd-length pattern fills every even row; odd rows are all distinct
    floats = np.resize([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324,
                        1e16, 0.1 + 0.2, 0.5], rows)
    floats[1::2] = np.random.default_rng(rows).standard_normal(rows // 2)
    columns = (np.arange(rows), floats,
               np.resize([True, False, False], rows),
               np.resize(np.array([info.min, info.max, 0, -1]), rows))
    header = ("replicate", "value", "flag", "count")
    fh = io.StringIO()
    cli._write_csv(fh, header, columns)
    assert fh.getvalue() == _reference_csv(header, columns)


# a kappa < kappa* Dirac chain that looks recurrent within the horizon
RECURRENT_CFG = (LIMIT_CFG.replace("model.selection_rate = 1.0",
                                   "model.selection_rate = 0.1")
                 .replace("run.time = 2.0", "run.time = 300.0")
                 + "run.burn_in = 20.0\nrun.x = 0.25\n")

# sha256 of report.json for every verdict command, at small replicate
# counts: (command, config, replicates) -> digest; both duality-discrete
# reports re-recorded with the batched ancestral step (the "big" MC run's
# stream), and the exact run's for the ancestral kernel built from total
# pick counts (its rhs moved by one unit in the last place) and again for
# the whole-grid identity (lhs one unit lower, gap the grid's largest);
# the "big" duality-discrete, duality-limit and kappa-star reports
# (delta_0.5 models) re-recorded when one-atom point draws stopped
# consuming uniforms; the kappa-star report again when it became the
# closed form checked by a Gauss rule, with no draws (the same report at
# every replicate count)
REPORT_DIGESTS = {
    ("duality-discrete", "discrete", "5"):
        "e417238322b67090a67298173e5ac5d254632259e0a87a259ff310b291374995",
    ("duality-discrete", "big", "200"):
        "532aa779a94d33a167279acb6ae23d2950d6d6917b63fb6ee8b63cb54e0c700d",
    ("duality-limit", "limit", "200"):
        "eda900134c2e550d1128907fd4b937bf74edbd276865d1e7b7372f85b24dba99",
    ("kappa-star", "limit", "2000"):
        "d9a4845f58ded8361c0c083355d52807903526722b1976d999e7a7abf83b58fa",
    ("recurrence", "recurrent", "10"):
        "3020ff61838ca5bd7a1c3b87b98ebd576bd4a35f0f2103cca3c51106ca052670",
    ("fixation", "recurrent", "10"):
        "7fb4e1559d32a7e959c089c8ec6a21a6c576f2536c6a1777fe518d0bf4147540",
}


def test_cli_report_bytes_pinned(tmp_path, capsys):
    paths = {"discrete": write_cfg(tmp_path, DISCRETE_CFG, "discrete.cfg"),
             "big": write_cfg(tmp_path, DISCRETE_CFG.replace(
                 "model.pop_size = 4", "model.pop_size = 40"), "big.cfg"),
             "limit": write_cfg(tmp_path, LIMIT_CFG, "limit.cfg"),
             "recurrent": write_cfg(tmp_path, RECURRENT_CFG, "recurrent.cfg")}
    digests = {}
    for i, (command, cfg, replicates) in enumerate(REPORT_DIGESTS):
        out = tmp_path / f"out{i}"
        assert main([command, "--config", paths[cfg], "--replicates",
                     replicates, "--out", str(out)]) == 0
        digests[command, cfg, replicates] = hashlib.sha256(
            (out / "report.json").read_bytes()).hexdigest()
    capsys.readouterr()
    assert digests == REPORT_DIGESTS


# the benchmark's Beta config: sigma = 1 and geometric offspring, so both
# commands run the Euler scheme with width-1 jumps
BENCH_BETA_CFG = BETA_CFG.replace("run.seed = 5", "run.seed = 0").replace(
    "run.replicates = 12\n", "") + "run.x = 0.5\nrun.x0 = 0.5\nrun.sample_size = 2\n"

# sha256 of the Euler outputs on BENCH_BETA_CFG, recorded before the
# Euler step was rewritten to run in place; the sde report again when the
# Beta rate came from the incomplete Beta series (its jump_rate moved from
# 35.14950920732858 to 35.149509207328634, the finals did not); the
# duality-limit report again when state 1 lost its xi candidates
EULER_DIGESTS = {
    ("sde", "40", "report.json"):
        "647618ef04baa16d2b5a1a863aaea80d66ee5a18785772837e710a1eed22ca81",
    ("sde", "40", "sde_finals.csv"):
        "333c115230300a50342ae6e5f7f64d07ee1744cb6242586b38a24a6554952928",
    ("duality-limit", "30", "report.json"):
        "444d55af62e0650efb8d7252f3d4918aa977553767025fb72d5178c1ecb19266",
}


def test_cli_euler_bytes_pinned(tmp_path, capsys):
    path = write_cfg(tmp_path, BENCH_BETA_CFG)
    digests = {}
    for command, replicates, name in EULER_DIGESTS:
        out = tmp_path / command
        assert main([command, "--config", path, "--replicates", replicates,
                     "--out", str(out)]) == 0
        digests[command, replicates, name] = hashlib.sha256(
            (out / name).read_bytes()).hexdigest()
    capsys.readouterr()
    assert digests == EULER_DIGESTS


@pytest.mark.parametrize("verdict, code", [
    (None, 0), ("pass", 0), ("fail", 1), ("inconclusive", 1),
    ("recurrent-looking", 0), ("escaping", 0), ("not-applicable", 0)])
def test_cli_exit_code_comes_from_the_verdict(tmp_path, capsys, monkeypatch,
                                              verdict, code):
    results = {} if verdict is None else {"verdict": verdict}
    monkeypatch.setitem(cli._COMMANDS, "forward",
                        (lambda cfg, rng: (results, {}, {}), "stub"))
    assert main(["forward", "--config", write_cfg(tmp_path, DISCRETE_CFG)]) \
        == code
    assert json.loads(capsys.readouterr().out)["results"] == results


def test_cli_duality_discrete_exact_pass(tmp_path, capsys):
    path = write_cfg(tmp_path, DISCRETE_CFG)
    code = main(["duality-discrete", "--config", path])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["results"]["mode"] == "exact"
    assert report["results"]["verdict"] == "pass"
    assert report["results"]["gap"] < 1e-10


def test_cli_duality_discrete_exact_for_beta(tmp_path, capsys):
    # a Beta xi_hat runs exact mode through its Gauss-Jacobi nodes
    cfg = DISCRETE_CFG.replace("model.pop_size = 4", "model.pop_size = 6")
    cfg = cfg.replace("model.xi.family = lambda_dirac\nmodel.xi.y = 0.5\n",
                      "model.xi.family = lambda_beta\nmodel.xi.a = 0.5\n"
                      "model.xi.b = 1.5\n")
    code = main(["duality-discrete", "--config", write_cfg(tmp_path, cfg)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["results"]["mode"] == "exact"
    assert report["results"]["verdict"] == "pass"


def test_cli_duality_discrete_mc_on_large_population(tmp_path, capsys):
    big = DISCRETE_CFG.replace("model.pop_size = 4", "model.pop_size = 40")
    big = big.replace("run.replicates = 5", "run.replicates = 4000")
    path = write_cfg(tmp_path, big)
    code = main(["duality-discrete", "--config", path])
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["mode"] == "mc"
    assert code == 0 and report["results"]["verdict"] == "pass"


def test_cli_duality_limit_pass(tmp_path, capsys):
    cfg = LIMIT_CFG.replace("run.replicates = 50", "run.replicates = 1500")
    cfg = cfg.replace("run.time = 2.0", "run.time = 0.3")
    path = write_cfg(tmp_path, cfg)
    code = main(["duality-limit", "--config", path, "--seed", "11"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["results"]["verdict"] == "pass"
    assert report["results"]["gap"] <= report["results"]["tolerance"]


def test_cli_duality_limit_inconclusive_when_escapes_decide(tmp_path, capsys):
    # most kappa = 6 chains pass the cap, and near x = 1 their score
    # decides the verdict: a model outcome, exit 1 with the reason
    cfg = LIMIT_CFG.replace("model.selection_rate = 1.0",
                            "model.selection_rate = 6.0")
    cfg = cfg.replace("run.replicates = 50", "run.replicates = 200")
    cfg = cfg.replace("run.time = 2.0", "run.time = 5.0")
    cfg += "run.x = 0.999999\n"
    path = write_cfg(tmp_path, cfg)
    assert main(["duality-limit", "--config", path]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["verdict"] == "inconclusive"
    assert report["diagnostics"]["reason"].startswith("escaped dual chains")


def test_cli_sde_and_dual_ctmc_smoke(tmp_path, capsys):
    path = write_cfg(tmp_path, LIMIT_CFG)
    out = tmp_path / "sde_out"
    assert main(["sde", "--config", path, "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 <= report["results"]["final_mean"]["mean"] <= 1.0
    assert (out / "sde_finals.csv").exists()
    assert main(["dual-ctmc", "--config", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["escape_fraction"] == 0.0
    assert report["results"]["final_mean"]["mean"] >= 1.0


@pytest.mark.parametrize("replicates", ["1", "12"])
def test_cli_dual_ctmc_builds_one_sampler(tmp_path, capsys, sampler_builds,
                                          replicates):
    path = write_cfg(tmp_path, BETA_CFG)
    assert main(["dual-ctmc", "--config", path,
                 "--replicates", replicates]) == 0
    capsys.readouterr()
    assert len(sampler_builds) == 1


def test_cli_dual_ctmc_beta_pinned(tmp_path, capsys):
    # pins the stream of the block-buffered Gillespie core (block draws of
    # holding times, event choices, geometric offspring counts and Beta
    # points, exact rejection draws, shared by the 12 replicates); recorded
    # again when state 1 lost its xi candidates
    path = write_cfg(tmp_path, BETA_CFG)
    assert main(["dual-ctmc", "--config", path]) == 0
    final = json.loads(capsys.readouterr().out)["results"]["final_mean"]
    assert final["mean"] == 2.6666666666666665
    assert final["std_error"] == pytest.approx(0.44946657497549475, rel=1e-12)


def test_cli_kappa_star_closed_form_verdict(tmp_path, capsys):
    cfg = LIMIT_CFG.replace("run.replicates = 50", "run.replicates = 20000")
    path = write_cfg(tmp_path, cfg)
    code = main(["kappa-star", "--config", path, "--seed", "61"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    results = report["results"]
    assert abs(results["closed_form"] - 4 * math.log(2)) < 1e-12
    assert results["verdict"] == "pass"
    assert 0.0 < results["estimate"]["std_error"] < 1e-12
    assert results["gap"] <= 3 * results["estimate"]["std_error"]
    assert report["diagnostics"]["warnings"] == []


def test_cli_kappa_star_scales_with_mass(tmp_path, capsys):
    # the threshold of m * delta_0.5 is m * 4 ln 2: ln 2 at m = 1/4
    cfg = LIMIT_CFG.replace("run.replicates = 50", "run.replicates = 20000")
    results = {}
    for mass in ("1.0", "0.25"):
        path = write_cfg(tmp_path, cfg.replace("model.xi.mass = 1.0",
                                               f"model.xi.mass = {mass}"),
                         f"mass_{mass}.cfg")
        assert main(["kappa-star", "--config", path, "--seed", "61"]) == 0
        results[mass] = json.loads(capsys.readouterr().out)["results"]
    full, quarter = results["1.0"], results["0.25"]
    assert quarter["estimate"]["mean"] == pytest.approx(
        0.25 * full["estimate"]["mean"], rel=1e-12)
    assert abs(quarter["closed_form"] - math.log(2)) < 1e-12
    assert quarter["verdict"] == "pass"


def test_cli_kappa_star_warns_kingman_infinite(tmp_path, capsys):
    # pairwise mergers outrun linear branching: the chain is recurrent at
    # every selection rate, whatever the estimate of the xi integral says
    cfg = LIMIT_CFG.replace("model.kingman_rate = 0.0",
                            "model.kingman_rate = 0.5")
    path = write_cfg(tmp_path, cfg)
    main(["kappa-star", "--config", path, "--seed", "61"])
    warned = json.loads(capsys.readouterr().out)["diagnostics"]["warnings"]
    assert len(warned) == 1 and warned[0].startswith("kappa* = inf")


def test_cli_kappa_star_not_applicable_under_kingman(tmp_path, capsys):
    # the sigma = 0 closed form 4 ln 2 is not the threshold at sigma > 0:
    # no closed form, no estimate, no gap, no pass or fail
    cfg = LIMIT_CFG.replace("model.kingman_rate = 0.0",
                            "model.kingman_rate = 0.5")
    cfg = cfg.replace("run.replicates = 50", "run.replicates = 20000")
    path = write_cfg(tmp_path, cfg)
    assert main(["kappa-star", "--config", path, "--seed", "61"]) == 0
    report = json.loads(capsys.readouterr().out)
    results = report["results"]
    assert results == {"mean_extra": 1.0, "verdict": "not-applicable"}
    assert report["diagnostics"]["warnings"][-1].startswith("kappa* = inf")


def test_cli_kappa_star_not_applicable_at_total_merger(tmp_path, capsys):
    # at y = 1 every xi event merges all lineages into one, so kappa* = inf:
    # a valid model, reported with a warning, not a config error
    cfg = LIMIT_CFG.replace("model.xi.y = 0.5", "model.xi.y = 1.0")
    path = write_cfg(tmp_path, cfg)
    assert main(["kappa-star", "--config", path, "--seed", "61"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"] == {"mean_extra": 1.0,
                                 "verdict": "not-applicable"}
    assert report["diagnostics"]["warnings"][-1].startswith("kappa* = inf")


DIRAC_XI = """model.xi.family = lambda_dirac
model.xi.y = 0.5
model.xi.mass = 1.0
"""


@pytest.mark.parametrize("atoms, closed", [
    ("1.0: 0.5", 4 * math.log(2)),
    ("1.0: 0.3 0.2 0.1 | 1.0: 0.5", -math.log(0.4) / 0.14 + 4 * math.log(2))],
    ids=["one-atom", "two-atom"])
def test_cli_kappa_star_closed_form_for_atoms(tmp_path, capsys, atoms,
                                              closed):
    cfg = LIMIT_CFG.replace(DIRAC_XI, "model.xi.family = finite_atomic\n"
                            f"model.xi.atoms = {atoms}\n")
    cfg = cfg.replace("run.replicates = 50", "run.replicates = 20000")
    path = write_cfg(tmp_path, cfg)
    assert main(["kappa-star", "--config", path, "--seed", "61"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert abs(results["closed_form"] - closed) < 1e-12
    assert results["verdict"] == "pass"


@pytest.mark.parametrize("xi_lines", [
    "model.xi.family = stick_breaking\n",
    "model.xi.family = lambda_beta\nmodel.xi.a = 0.5\nmodel.xi.b = 1.5\n"],
    ids=["stick", "beta"])
def test_cli_kappa_star_not_applicable_where_the_integral_diverges(
        tmp_path, capsys, xi_lines):
    # kappa* = inf: no closed form, no estimate and no gap
    path = write_cfg(tmp_path, LIMIT_CFG.replace(DIRAC_XI, xi_lines))
    assert main(["kappa-star", "--config", path, "--seed", "61"]) == 0
    report = json.loads(capsys.readouterr().out)
    results = report["results"]
    assert results == {"mean_extra": 1.0, "verdict": "not-applicable"}
    assert report["diagnostics"]["warnings"][-1].startswith("kappa* = inf")


def test_cli_kappa_star_requires_measure(tmp_path, capsys):
    cfg = LIMIT_CFG.replace("model.xi.family = lambda_dirac",
                            "model.xi.family = none")
    path = write_cfg(tmp_path, cfg)
    assert main(["kappa-star", "--config", path]) == 2
    assert "model.xi.family" in capsys.readouterr().err


def bench_dirac_config() -> str:
    """The benchmark's kappa-star config: Lambda = delta_0.5 at kappa = 1."""
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    tree = ast.parse((bench / "experiments.py").read_text(encoding="utf-8"))
    text, = [ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign)
             and [t.id for t in node.targets] == ["DIRAC_CFG"]]
    return text.format(kappa=1.0, horizon=1000.0, cap=10_000)


def test_cli_kappa_star_draws_nothing(tmp_path, capsys, monkeypatch):
    # the report is the same at every seed and replicate count (config_hash
    # hashes the overridden keys too), and the generator main builds is
    # never touched
    path = write_cfg(tmp_path, bench_dirac_config())
    made = []
    default_rng = np.random.default_rng

    def recording_rng(seed):
        made.append((seed, default_rng(seed)))
        return made[-1][1]

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    reports = {}
    for seed, replicates in (("1", "1000000"), ("2", "1000000"), ("1", "2")):
        out = tmp_path / f"out_{seed}_{replicates}"
        assert main(["kappa-star", "--config", path, "--seed", seed,
                     "--replicates", replicates, "--out", str(out)]) == 0
        reports[seed, replicates] = json.loads(
            (out / "report.json").read_text())
    capsys.readouterr()
    assert [seed for seed, _ in made] == [1, 2, 1]
    for seed, rng in made:
        assert (rng.bit_generator.state
                == default_rng(seed).bit_generator.state)
    assert reports["1", "2"] == {**reports["1", "1000000"],
                                 "config_hash": reports["1", "2"]["config_hash"]}
    assert reports["2", "1000000"] == {
        **reports["1", "1000000"], "seed": 2,
        "config_hash": reports["2", "1000000"]["config_hash"]}
    results = reports["1", "2"]["results"]
    assert results["verdict"] == "pass"
    assert abs(results["closed_form"] - 4.0 * math.log(2.0)) < 1e-15
    # the benchmark's gate reads gap / (3 SE): finite
    se = results["estimate"]["std_error"]
    assert se > 0.0 and math.isfinite(results["gap"] / (3.0 * se))


def test_cli_kappa_star_beta_closed_form(tmp_path, capsys):
    # Beta(2.5, 1): B(1/2, 1) (psi(3/2) - psi(1)) / B(5/2, 1)
    # = 5 (2 - 2 ln 2) at m = beta = 1
    xi = "model.xi.family = lambda_beta\nmodel.xi.a = 2.5\nmodel.xi.b = 1\n"
    path = write_cfg(tmp_path, LIMIT_CFG.replace(DIRAC_XI, xi))
    assert main(["kappa-star", "--config", path]) == 0
    report = json.loads(capsys.readouterr().out)
    results = report["results"]
    assert results["closed_form"] == pytest.approx(10.0 * (1.0 - math.log(2.0)),
                                                   rel=1e-14)
    assert results["verdict"] == "pass"
    assert 0.0 < results["estimate"]["std_error"] < 1e-12
    assert report["diagnostics"]["warnings"] == []


def test_cli_recurrence_inconclusive_exit_one(tmp_path, capsys):
    # a pure death chain from n0 = 2 returns to 1 exactly once and then
    # freezes: neither escaping nor visibly recurrent
    cfg = ("model.kind = limit\nmodel.selection_rate = 0.0\n"
           "model.kingman_rate = 1.0\nmodel.offspring.family = delta\n"
           "model.offspring.value = 1\nmodel.xi.family = none\n"
           "run.seed = 2\nrun.replicates = 10\nrun.time = 50.0\n")
    path = write_cfg(tmp_path, cfg)
    code = main(["recurrence", "--config", path])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["results"]["verdict"] == "inconclusive"
    assert report["results"]["mean_returns_to_one"] == 1.0


def test_cli_start_above_cap_is_a_config_error(tmp_path, capsys):
    path = write_cfg(tmp_path, LIMIT_CFG + "run.n0 = 50\nrun.cap = 10\n")
    assert main(["dual-ctmc", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: n0 must not exceed cap" in captured.err


@pytest.mark.parametrize("command, text", [("forward", DISCRETE_CFG),
                                           ("sde", LIMIT_CFG)],
                         ids=["forward", "sde"])
def test_cli_start_above_cap_refused_by_every_command(tmp_path, capsys,
                                                      command, text):
    # the config refuses n0 > cap, also for commands that run no chain
    path = write_cfg(tmp_path, text + "run.n0 = 50\nrun.cap = 10\n")
    assert main([command, "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n0 must not exceed cap" in captured.err
    assert "run.n0" in captured.err and "run.cap" in captured.err


# the exact model of the finite benchmark, N = 6
EXACT_CFG = """
model.kind = discrete
model.pop_size = 6
model.extreme_prob = 0.2
model.selection.family = geometric
model.selection.param = 0.1
model.xi.family = finite_atomic
model.xi.atoms = 1.0: 0.3 0.2 0.1 | 1.0: 0.5
run.seed = 7
run.generations = 3
"""


@pytest.mark.parametrize("command, text, key, value", [
    ("duality-discrete", EXACT_CFG, "run.x", "-0.5"),
    ("duality-discrete", EXACT_CFG, "run.x", "1.5"),
    ("forward", DISCRETE_CFG, "run.x0", "1.5")],
    ids=["x-below", "x-above", "x0-above"])
def test_cli_frequency_outside_unit_interval_refused(tmp_path, capsys, command,
                                                     text, key, value):
    # -0.5 on the grid of N = 6 would index row -3, the row of x = 4/6
    path = write_cfg(tmp_path, text + f"{key} = {value}\n")
    assert main([command, "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: '{key}' must be in [0, 1]" in captured.err


def test_cli_zero_replicates_is_a_config_error(tmp_path, capsys):
    path = write_cfg(tmp_path, LIMIT_CFG)
    assert main(["recurrence", "--config", path, "--replicates", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "run.replicates" in captured.err and "Traceback" not in captured.err


def test_cli_recurrence_recurrent_exit_zero(tmp_path, capsys):
    cfg = LIMIT_CFG.replace("model.selection_rate = 1.0",
                            "model.selection_rate = 0.1")
    cfg = cfg.replace("run.time = 2.0", "run.time = 300.0")
    cfg = cfg.replace("run.replicates = 50", "run.replicates = 10")
    path = write_cfg(tmp_path, cfg)
    code = main(["recurrence", "--config", path])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["results"]["verdict"] == "recurrent-looking"


def test_cli_fixation_recurrent_regime(tmp_path, capsys):
    cfg = LIMIT_CFG.replace("model.selection_rate = 1.0",
                            "model.selection_rate = 0.1")
    cfg = cfg.replace("run.time = 2.0", "run.time = 300.0")
    cfg = cfg.replace("run.replicates = 50", "run.replicates = 10")
    cfg += "run.burn_in = 20.0\nrun.x = 0.25\n"
    path = write_cfg(tmp_path, cfg)
    code = main(["fixation", "--config", path])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["results"]["regime"] == "recurrent-looking"
    prob = report["results"]["probability"]
    # the chain hugs state 1, so the weak type is lost from x with
    # probability close to 1 - x
    assert 0.5 < prob["mean"] < 0.95
    assert prob["std_error"] >= 0.0


@pytest.mark.parametrize("cap, escape_fraction", [(2, 0.9), (3, 0.4)])
def test_cli_fixation_escapes_are_inconclusive(tmp_path, capsys, cap,
                                               escape_fraction):
    # escapes in the probe's chains are a model outcome, reported as an
    # inconclusive verdict (exit 1), not a config error (exit 2); a tight
    # cap makes most (cap 2) or some (cap 3) replicates escape
    cfg = LIMIT_CFG.replace("model.selection_rate = 1.0",
                            "model.selection_rate = 0.1")
    cfg = cfg.replace("run.time = 2.0", "run.time = 300.0")
    cfg = cfg.replace("run.replicates = 50", "run.replicates = 10")
    cfg += f"run.burn_in = 20.0\nrun.x = 0.25\nrun.cap = {cap}\n"
    path = write_cfg(tmp_path, cfg)
    code = main(["fixation", "--config", path])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 1
    assert report["results"] == {"verdict": "inconclusive"}
    assert report["diagnostics"]["regime"] == "inconclusive"
    assert report["diagnostics"]["escape_fraction"] == escape_fraction
    assert "probe is inconclusive" in report["diagnostics"]["reason"]
    assert "config error" not in captured.err


def test_cli_fixation_builds_one_sampler(tmp_path, capsys, sampler_builds):
    # a recurrent-looking Beta chain: the probe's own runs give the
    # occupation average, so the command builds one sampler, not two
    cfg = BETA_CFG.replace("run.time = 1.0", "run.time = 50.0")
    cfg += "run.burn_in = 10.0\n"
    path = write_cfg(tmp_path, cfg)
    assert main(["fixation", "--config", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["regime"] == "recurrent-looking"
    assert len(sampler_builds) == 1


def test_cli_fixation_needs_room_past_burn_in(tmp_path, capsys):
    cfg = LIMIT_CFG.replace("model.selection_rate = 1.0",
                            "model.selection_rate = 0.1")
    cfg = cfg.replace("run.time = 2.0", "run.time = 300.0")
    cfg = cfg.replace("run.replicates = 50", "run.replicates = 10")
    cfg += "run.burn_in = 400.0\n"
    path = write_cfg(tmp_path, cfg)
    assert main(["fixation", "--config", path]) == 2
    assert "run.time" in capsys.readouterr().err


@pytest.mark.parametrize("a, b", [(2.0, 0.005), (1.994, 0.006), (2.5, 1.0)])
def test_cli_kappa_star_beta_verdict(tmp_path, capsys, monkeypatch, a, b):
    # the closed form passes, at small b too, where every node of a
    # Laguerre rule in b t lies past t = 4, and the same closed form off
    # by a factor 1 + 1e-9 fails
    xi = f"model.xi.family = lambda_beta\nmodel.xi.a = {a}\nmodel.xi.b = {b}\n"
    path = write_cfg(tmp_path, LIMIT_CFG.replace(DIRAC_XI, xi))
    assert main(["kappa-star", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["verdict"] == "pass"
    exact = cli.kappa_star
    monkeypatch.setattr(cli, "kappa_star", lambda params: (
        exact(params)[0] * (1.0 + 1e-9), None))
    assert main(["kappa-star", "--config", path]) == 1
    assert json.loads(capsys.readouterr().out)["results"]["verdict"] == "fail"


# ---------------------------------------------------------------------------
# the benchmark's fixed-seed gates


def test_bench_fixed_seed_gates_pass(tmp_path, capsys, monkeypatch):
    # the benchmark runs its 3-standard-error checks at fixed seeds
    # (MC_SEED, and MC_SEED + 1 for --smoke's second seed), so a chance
    # miss there fails every benchmark run: each statistical experiment's
    # invocations, at full and at smoke scale on every workload, pass the
    # experiment's own verdict
    spec = importlib.util.spec_from_file_location(
        "bench_experiments", pathlib.Path(__file__).resolve().parents[1]
        / "bench" / "experiments.py")
    ex = importlib.util.module_from_spec(spec)
    # its dataclass resolves annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, ex)
    spec.loader.exec_module(ex)
    paths = ex.write_configs(str(tmp_path))
    gates = {}
    for workload in ex.WORKLOADS:
        for scale, mc_seeds in ((1.0, (ex.MC_SEED,)),
                                (ex.SMOKE, (ex.MC_SEED, ex.MC_SEED + 1))):
            for exp, s in ex.workload_plan(workload, scale):
                for mc_seed in mc_seeds if exp.statistical else ():
                    for args in exp.invocations(paths, 0, s, mc_seed):
                        gates[args] = exp
    assert {exp.name for exp in gates.values()} == {
        "duality_mc", "kappa_star", "duality_limit"}
    for args, exp in gates.items():
        code = main(list(args))
        report = json.loads(capsys.readouterr().out)
        passed, _ = exp.verdict(report)
        assert code == 0 and passed, (args, report["results"])
