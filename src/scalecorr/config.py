"""Pipeline configuration: key=value file plus command-line overrides."""

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import textio
from .errors import ConfigError

# upper bound on the q grid's size; the paper's grid has 10 values
MAX_Q_VALUES = 10_000
SIGNIFICANCE_MODES = ("all", "filtered")


@dataclass
class PipelineConfig:
    prices: str = None            # raw (ticker, date, close) records
    returns: str = None           # alternatively: a serialized return panel
    capitalization: str = None    # optional (ticker, date, cap) records
    k: float = 0.90               # length-filter fraction
    tau_min: int = 1
    tau_max: int = 19
    q_min: float = 0.1
    q_max: float = 1.0
    q_step: float = 0.1
    alpha: float = 0.05
    significance_mode: str = "filtered"
    seed: int = 0
    output_dir: str = "out"

    def validate(self):
        if not (0 < self.k <= 1):
            raise ConfigError(f"k={self.k} outside (0, 1]")
        if self.tau_min < 1 or self.tau_max - self.tau_min < 2:
            raise ConfigError("tau range must satisfy 1 <= tau_min and "
                              "tau_max >= tau_min + 2 (at least 3 horizons)")
        if len(self.q_grid()) < 2:
            raise ConfigError(
                f"q grid {self.q_min}..{self.q_max} step {self.q_step} has "
                "fewer than 2 values; the proxy fit needs at least 2")
        if self.significance_mode not in SIGNIFICANCE_MODES:
            raise ConfigError(
                f"significance_mode={self.significance_mode!r} not in "
                f"{SIGNIFICANCE_MODES}")
        if not (0 < self.alpha < 1):
            raise ConfigError(f"alpha={self.alpha} outside (0, 1)")
        if self.seed < 0:
            raise ConfigError(f"seed={self.seed} is negative")
        return self

    def tau_range(self):
        return np.arange(self.tau_min, self.tau_max + 1)

    def q_grid(self):
        """q_min, q_min + q_step, ... up to q_max, never past it.

        Raises ConfigError for a bound or step that is not positive and
        finite, q_min > q_max, > MAX_Q_VALUES values (before allocating) or
        a q_min that rounds to 0 at the grid's 12 decimals."""
        if not (0 < self.q_min <= self.q_max < np.inf
                and 0 < self.q_step < np.inf):
            raise ConfigError("q grid must be positive, finite and non-empty")
        # the 1e-9 keeps q_max when the span is an exact multiple of the
        # step but the division rounds below it (0.9 / 0.1 = 8.999...)
        n = np.floor((self.q_max - self.q_min) / self.q_step + 1e-9) + 1
        if n > MAX_Q_VALUES:
            raise ConfigError(
                f"q grid {self.q_min}..{self.q_max} step {self.q_step} has "
                f"more than {MAX_Q_VALUES} values")
        grid = np.round(self.q_min + self.q_step * np.arange(int(n)), 12)
        if grid[0] <= 0:
            raise ConfigError(f"q_min={self.q_min} rounds to 0 in the q grid")
        return grid

    def to_pairs(self):
        pairs = ((f.name, getattr(self, f.name))
                 for f in dataclasses.fields(self))
        return [(name, str(v)) for name, v in pairs if v is not None]


FIELD_TYPES = {
    f.name: (f.type if isinstance(f.type, type) else
             {"float": float, "int": int, "str": str}.get(str(f.type), str))
    for f in dataclasses.fields(PipelineConfig)
}


def parse_config_file(path):
    """Read key=value lines (``#`` comments allowed) into a dict."""
    values = {}
    lines = textio.read_text(path, ConfigError).split("\n")
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def build_config(file_values=None, overrides=None):
    """Merge config-file values and CLI overrides into a PipelineConfig."""
    merged = dict(file_values or {})
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    cfg = PipelineConfig()
    for key, value in merged.items():
        if key not in FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        parser = FIELD_TYPES[key]
        try:
            setattr(cfg, key, parser(value) if isinstance(value, str) else value)
        except ValueError as exc:
            raise ConfigError(f"config key {key}: {exc}") from exc
    return cfg.validate()
