"""Flat dotted-key experiment configuration.

Config files are plain text, one ``key = value`` per line, ``#`` starts
a comment.  Keys live in three blocks: ``model.*`` (which process and
its parameters), ``run.*`` (seed, replicate counts, horizons), and
``output.*`` (artifact paths).  ``run.seed`` is mandatory so every run
is reproducible.  The full key list:

    model.kind                discrete | limit
    model.pop_size            int >= 2            (discrete)
    model.extreme_prob        float in [0, 1]     (discrete)
    model.selection.family    neutral | geometric | explicit   (discrete)
    model.selection.param     float in (0, 1)     (geometric)
    model.selection.pmf       floats, law of the parent count K = 1, 2, ...
    model.selection_rate      float >= 0          (limit)
    model.kingman_rate        float >= 0          (limit)
    model.offspring.family    delta | geometric | pmf          (limit)
    model.offspring.value     int >= 1            (delta)
    model.offspring.param     float in (0, 1)     (geometric)
    model.offspring.pmf       floats, law of the extra count 1, 2, ...
    model.jump_floor          float in (0, 1]     (limit, optional)
    model.xi.family           none | lambda_dirac | lambda_beta |
                              finite_atomic | stick_breaking
    model.xi.y                float in (0, 1]     (lambda_dirac)
    model.xi.a, model.xi.b    floats > 0          (lambda_beta, stick beta law)
    model.xi.mass             float > 0, total mass (default 1; not for
                              finite_atomic, whose weights carry the mass)
    model.xi.atoms            "w: z1 z2 | w: z1"  (finite_atomic)
    model.xi.stick_law        uniform | beta      (stick_breaking)
    model.xi.truncation_tol   float in (0, 1)     (stick_breaking)
    run.seed                  int >= 0 (required)
    run.replicates            int >= 1    (default 1000)
    run.generations           int >= 1    (default 10, discrete horizons)
    run.time                  float > 0   (default 1.0, limit horizons)
    run.dt                    float > 0   (default 1e-3, Euler step; unused
                                           where the flow is exact:
                                           sigma = 0, kappa > 0, delta-i)
    run.burn_in               float >= 0  (default 50.0)
    run.cap                   int >= 1    (default 10000, dual-chain cap)
    run.x0                    float in [0, 1] (default 0.5, start frequency)
    run.x                     float in [0, 1] (default 0.5, duality evaluation)
    run.sample_size           int >= 1    (default 2, sample size / moment order)
    run.n0                    int in [1, cap] (default 2, dual-chain start)
    output.dir                directory for CSV/JSON artifacts (optional)

For the discrete model the measure is normalized to total mass one (it
enters only through the shape of extreme events); the limit model keeps
the configured mass, which sets the event intensity.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

from .discrete import DiscreteParams
from .limit_sde import LimitParams
from .selection import (SelectionLaw, explicit_family, geometric_family,
                        geometric_offspring, neutral_family, offspring_delta,
                        offspring_pmf)
from .simplex import (FiniteAtomic, LambdaBeta, LambdaDirac, SimplexPoint,
                      StickBreaking, XiMeasure, normalized)


class ConfigError(Exception):
    """A config problem, carrying the offending key when there is one."""

    def __init__(self, message: str, key: str | None = None) -> None:
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class RunSettings:
    """The run block: one field per ``run.*`` key, with its default."""

    seed: int
    replicates: int = 1000
    generations: int = 10
    time: float = 1.0
    dt: float = 1e-3
    burn_in: float = 50.0
    cap: int = 10_000
    x0: float = 0.5
    x: float = 0.5
    sample_size: int = 2
    n0: int = 2


# run.* key -> the type of its RunSettings field, "int" or "float"
_RUN_TYPES = {f"run.{f.name}": f.type for f in fields(RunSettings)}
_INT_KEYS = {"model.pop_size", "model.offspring.value"} | {
    key for key, kind in _RUN_TYPES.items() if kind == "int"}
_FLOAT_KEYS = {"model.extreme_prob", "model.selection.param",
               "model.selection_rate", "model.kingman_rate",
               "model.offspring.param", "model.jump_floor", "model.xi.y",
               "model.xi.a", "model.xi.b", "model.xi.mass",
               "model.xi.truncation_tol"} | {
    key for key, kind in _RUN_TYPES.items() if kind == "float"}
_STR_KEYS = {"model.kind", "model.selection.family", "model.selection.pmf",
             "model.offspring.family", "model.offspring.pmf",
             "model.xi.family", "model.xi.atoms", "model.xi.stick_law",
             "output.dir"}
KNOWN_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS

# (RunSettings field, lower bound, strict)
_RUN_BOUNDS = (("replicates", 1, False), ("generations", 1, False),
               ("cap", 1, False), ("sample_size", 1, False), ("n0", 1, False),
               ("time", 0.0, True), ("dt", 0.0, True), ("burn_in", 0.0, False))


def parse_text(text: str) -> dict[str, str]:
    """Raw key -> value strings; rejects malformed lines and duplicates."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown config key '{key}'", key=key)
        if key in out:
            raise ConfigError(f"duplicate config key '{key}'", key=key)
        if not value:
            raise ConfigError(f"empty value for '{key}'", key=key)
        out[key] = value
    return out


def _coerce(key: str, value: str):
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
    except ValueError:
        kind = "an integer" if key in _INT_KEYS else "a number"
        raise ConfigError(f"'{key}' must be {kind}, got {value!r}", key=key) from None
    return value


class Config:
    """Validated experiment configuration."""

    def __init__(self, raw: dict[str, str]) -> None:
        self._raw = dict(raw)
        self._values = {k: _coerce(k, v) for k, v in raw.items()}
        kind = self._values.get("model.kind")
        if kind is not None and kind not in ("discrete", "limit"):
            raise ConfigError("'model.kind' must be 'discrete' or 'limit'",
                              key="model.kind")
        if "run.seed" not in self._values:
            raise ConfigError("missing required key 'run.seed'", key="run.seed")
        if self._values["run.seed"] < 0:
            raise ConfigError("'run.seed' must be non-negative", key="run.seed")

    @staticmethod
    def from_text(text: str, overrides: dict[str, str] | None = None) -> "Config":
        raw = parse_text(text)
        for key, value in (overrides or {}).items():
            raw[key] = value
        return Config(raw)

    @staticmethod
    def from_file(path: str, overrides: dict[str, str] | None = None) -> "Config":
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
        return Config.from_text(text, overrides)

    def _require(self, key: str):
        if key not in self._values:
            raise ConfigError(f"missing required key '{key}'", key=key)
        return self._values[key]

    def _get(self, key: str, default=None):
        return self._values.get(key, default)

    @property
    def kind(self) -> str:
        return self._require("model.kind")

    @property
    def run(self) -> RunSettings:
        """The run block, with the bounds of the module docstring enforced."""
        settings = RunSettings(**{key[len("run."):]: value
                                  for key, value in self._values.items()
                                  if key.startswith("run.")})
        for name, low, strict in _RUN_BOUNDS:
            value = getattr(settings, name)
            if not (value > low if strict else value >= low):
                bound = f"> {low:g}" if strict else f">= {low:g}"
                raise ConfigError(f"'run.{name}' must be {bound}, got {value!r}",
                                  key=f"run.{name}")
        for name, value in (("x0", settings.x0), ("x", settings.x)):
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"'run.{name}' must be in [0, 1], got {value!r}",
                                  key=f"run.{name}")
        if settings.n0 > settings.cap:
            raise ConfigError(f"n0 must not exceed cap: 'run.n0' is "
                              f"{settings.n0}, 'run.cap' {settings.cap}",
                              key="run.n0")
        return settings

    @property
    def output_dir(self) -> str | None:
        return self._get("output.dir")

    # -- model builders ----------------------------------------------------

    def _selection_law(self, prefix: str) -> SelectionLaw:
        family = self._require(f"{prefix}.family")
        if prefix == "model.selection":
            builders = {"neutral": lambda: neutral_family(),
                        "geometric": lambda: geometric_family(
                            self._require(f"{prefix}.param")),
                        "explicit": lambda: explicit_family(
                            self._pmf_values(f"{prefix}.pmf"))}
        else:
            builders = {"delta": lambda: offspring_delta(
                            self._require(f"{prefix}.value")),
                        "geometric": lambda: geometric_offspring(
                            self._require(f"{prefix}.param")),
                        "pmf": lambda: offspring_pmf(
                            self._pmf_values(f"{prefix}.pmf"))}
        if family not in builders:
            raise ConfigError(
                f"'{prefix}.family' must be one of {sorted(builders)}, "
                f"got {family!r}", key=f"{prefix}.family")
        try:
            return builders[family]()
        except ValueError as exc:
            raise ConfigError(f"invalid {prefix} block: {exc}",
                              key=f"{prefix}.family") from exc

    def _pmf_values(self, key: str) -> tuple[float, ...]:
        text = self._require(key)
        try:
            values = tuple(float(tok) for tok in text.split())
        except ValueError:
            raise ConfigError(f"'{key}' must be whitespace-separated numbers",
                              key=key) from None
        if not values:
            raise ConfigError(f"'{key}' is empty", key=key)
        return values

    def xi_measure(self) -> XiMeasure | None:
        family = self._get("model.xi.family", "none")
        mass = self._get("model.xi.mass", 1.0)
        try:
            if family == "none":
                return None
            if family == "lambda_dirac":
                return LambdaDirac(self._require("model.xi.y"), mass)
            if family == "lambda_beta":
                return LambdaBeta(self._require("model.xi.a"),
                                  self._require("model.xi.b"), mass)
            if family == "finite_atomic":
                if "model.xi.mass" in self._values:
                    raise ConfigError(
                        "'model.xi.mass' does not apply to finite_atomic: "
                        "the atom weights carry the mass", key="model.xi.mass")
                return FiniteAtomic(self._parse_atoms())
            if family == "stick_breaking":
                return StickBreaking(
                    stick_law=self._get("model.xi.stick_law", "uniform"),
                    a=self._get("model.xi.a", 1.0),
                    b=self._get("model.xi.b", 1.0),
                    total_mass=mass,
                    truncation_tol=self._get("model.xi.truncation_tol", 1e-10))
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"invalid model.xi block: {exc}",
                              key="model.xi.family") from exc
        raise ConfigError(
            "'model.xi.family' must be one of ['finite_atomic', 'lambda_beta',"
            " 'lambda_dirac', 'none', 'stick_breaking'], got "
            f"{family!r}", key="model.xi.family")

    def _parse_atoms(self) -> tuple[tuple[float, SimplexPoint], ...]:
        text = self._require("model.xi.atoms")
        atoms = []
        for chunk in text.split("|"):
            chunk = chunk.strip()
            if ":" not in chunk:
                raise ConfigError(
                    "each atom in 'model.xi.atoms' must look like "
                    f"'weight: z1 z2 ...', got {chunk!r}", key="model.xi.atoms")
            w_text, z_text = chunk.split(":", 1)
            try:
                weight = float(w_text)
                masses = tuple(float(tok) for tok in z_text.split())
                atoms.append((weight, SimplexPoint.ranked(masses)))
            except ValueError as exc:
                raise ConfigError(f"bad atom {chunk!r} in 'model.xi.atoms': {exc}",
                                  key="model.xi.atoms") from exc
        return tuple(atoms)

    def discrete_params(self) -> DiscreteParams:
        if self.kind != "discrete":
            raise ConfigError("this command needs model.kind = discrete",
                              key="model.kind")
        xi = self.xi_measure()
        try:
            return DiscreteParams(
                pop_size=self._require("model.pop_size"),
                extreme_prob=self._get("model.extreme_prob", 0.0),
                parent_law=self._selection_law("model.selection"),
                xi_hat=normalized(xi) if xi is not None else None)
        except ValueError as exc:
            raise ConfigError(f"invalid discrete model: {exc}") from exc

    def limit_params(self) -> LimitParams:
        if self.kind != "limit":
            raise ConfigError("this command needs model.kind = limit",
                              key="model.kind")
        try:
            return LimitParams(
                selection_rate=self._get("model.selection_rate", 0.0),
                kingman_rate=self._get("model.kingman_rate", 0.0),
                offspring=self._selection_law("model.offspring"),
                xi=self.xi_measure(),
                jump_floor=self._get("model.jump_floor"))
        except ValueError as exc:
            raise ConfigError(f"invalid limit model: {exc}") from exc

    # -- reporting ----------------------------------------------------------

    def canonical_lines(self) -> str:
        return "\n".join(f"{k} = {self._raw[k]}" for k in sorted(self._raw)) + "\n"

    def hash(self) -> str:
        return hashlib.sha256(self.canonical_lines().encode()).hexdigest()
