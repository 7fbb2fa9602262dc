"""Experiment configuration: strict INI parsing with materialized defaults.

Unknown sections and keys are hard errors; silent typos are the main
reproducibility hazard. Every default is filled at parse time so the
resolved config written next to the results fully describes the run.

Each INI key is declared once, as a field of the dataclass its section
builds; the key set, the parser and the echo are derived from those fields.
The sections build the classes the engine runs on:

- [dataset]: DatasetConfig, below.
- [shard]: data.ShardPlan (the runner sets its seed per trial).
- [variant]: variants.VariantConfig, with ema_alpha and iidness_prior
  left to resolve per kind and per trial.
- [training]: TrainConfig, derived below from rounds, engine.RoundPlan's
  fields (all but num_clients, which [shard] sets), hidden_dims,
  bytes_per_param and semisup.SslHyper's fields.
- [augment]: data.AugmentConfig.
- [run]: ExperimentConfig's own scalar fields.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, field, fields, make_dataclass
from pathlib import Path

from .data import AugmentConfig, ShardPlan
from .engine import RoundPlan
from .metrics import CommLedger
from .semisup import SslHyper
from .variants import VariantConfig

GENERATORS = ("blobs", "csv")


@dataclass(frozen=True)
class DatasetConfig:
    """Where examples come from: synthetic blobs or CSV files."""

    generator: str = "blobs"
    num_classes: int = 10
    dim: int = 16
    train_per_class: int = 420
    eval_per_class: int = 50
    spread: float = 0.35
    csv_path: str | None = None
    eval_csv_path: str | None = None
    scale01: bool = False

    def __post_init__(self) -> None:
        if self.generator not in GENERATORS:
            raise ValueError(f"generator must be one of {GENERATORS}")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.train_per_class < 1 or self.eval_per_class < 1:
            raise ValueError("per-class example counts must be >= 1")
        if self.spread < 0:
            raise ValueError("spread must be non-negative")
        if self.generator == "csv" and not (self.csv_path and self.eval_csv_path):
            raise ValueError("generator = csv requires csv_path and eval_csv_path")


def _ini_fields(cls) -> list:
    """The fields of cls that INI keys set; a keyword-only field (the shard
    seed, the round's client count) is set per trial or from another section.
    """
    return [f for f in fields(cls) if not f.kw_only]


class _TrainingMethods:
    """TrainConfig's checks and the engine objects it builds. Its fields
    are added below, read from RoundPlan's and SslHyper's.
    """

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden_dims entries must be >= 1")
        # the remaining ranges are checked by the objects the runner builds
        self.round_plan(num_clients=1)
        self.hyper()
        CommLedger(bytes_per_param=self.bytes_per_param)

    def round_plan(self, num_clients: int) -> RoundPlan:
        return RoundPlan(num_clients=num_clients, **self._values_for(RoundPlan))

    def hyper(self) -> SslHyper:
        return SslHyper(**self._values_for(SslHyper))

    def _values_for(self, cls) -> dict[str, object]:
        return {f.name: getattr(self, f.name) for f in _ini_fields(cls)}


def _field_specs(cls) -> list[tuple]:
    return [(f.name, f.type, field(default=f.default)) for f in _ini_fields(cls)]


# [training] is the round count, RoundPlan's keys, the model shape and
# SslHyper's keys, in that order; the engine-side fields are read, not
# re-typed, so each keeps the one type and default its class declares
TrainConfig = make_dataclass(
    "TrainConfig",
    [("rounds", "int", field(default=300)),
     *_field_specs(RoundPlan),
     ("hidden_dims", "tuple[int, ...]", field(default=(32,))),
     ("bytes_per_param", "int", field(default=8)),
     *_field_specs(SslHyper)],
    bases=(_TrainingMethods,),
    namespace={"__doc__": "Round count, protocol shape, optimizer, and objective weights.",
               "__module__": __name__},
    frozen=True,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment: every block present, every default filled."""

    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    shard: ShardPlan = field(default_factory=ShardPlan)
    variant: VariantConfig = field(default_factory=VariantConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    trials: int = 1
    seed: int = 0
    output: str = "runs/experiment"
    stability_window: int | None = None
    accuracy_threshold: float | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.output:
            raise ValueError("output directory must be non-empty")
        if self.stability_window is not None and self.stability_window < 1:
            raise ValueError("stability_window must be >= 1")
        if self.accuracy_threshold is not None and not 0.0 < self.accuracy_threshold <= 1.0:
            raise ValueError("accuracy_threshold must be in (0, 1]")
        server_side = self.training.topology != "labels_at_client"
        if server_side != self.shard.server_holds_labels:
            raise ValueError(
                "topology and labeled placement disagree: labels_at_server_* "
                "topologies require server_holds_labels = true and vice versa"
            )

    @property
    def effective_window(self) -> int:
        """Trailing-round window for stability stats: explicit, else 12.5%."""
        if self.stability_window is not None:
            return min(self.stability_window, self.training.rounds)
        return max(1, self.training.rounds // 8)


_BOOLEANS = {"true": True, "yes": True, "1": True, "on": True,
             "false": False, "no": False, "0": False, "off": False}


def _boolean(text: str) -> bool:
    flag = _BOOLEANS.get(text.lower())
    if flag is None:
        raise ValueError(text)
    return flag


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(tok.strip()) for tok in text.split(",") if tok.strip())


def _real(text: str) -> float:
    """A finite float: float() also reads nan, inf and overflowing literals,
    which no key means, and NaN compares false with every bound.
    """
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _real_or_auto(text: str) -> float | str:
    return "auto" if text.lower() == "auto" else _real(text)


# field annotation (an optional field parses like its base type, since an
# empty value keeps the default) -> (converter, what the error names)
_CONVERTERS = {
    "str": (str, "a string"),
    "int": (int, "an integer"),
    "float": (_real, "a finite number"),
    "bool": (_boolean, "a boolean"),
    "tuple[int, ...]": (_int_tuple, "comma-separated integers"),
    "float | str": (_real_or_auto, "a finite number or 'auto'"),
}

# INI section -> the ExperimentConfig field it builds; its keys are that
# dataclass's fields. The remaining ExperimentConfig fields form [run].
_SECTION_CLASSES = {
    f.name: f.default_factory for f in fields(ExperimentConfig)
    if f.default_factory is not MISSING
}


def _key_table(cls) -> dict[str, tuple]:
    return {
        f.name: _CONVERTERS[f.type.removesuffix(" | None")]
        for f in _ini_fields(cls) if f.name not in _SECTION_CLASSES
    }


_KEYS = {name: _key_table(cls) for name, cls in _SECTION_CLASSES.items()}
_KEYS["run"] = _key_table(ExperimentConfig)


def _values(parser: configparser.ConfigParser, name: str) -> dict[str, object]:
    """The typed values set in one section; a missing or empty key is left
    out, so the dataclass default applies.
    """
    raw = parser[name] if parser.has_section(name) else {}
    values = {}
    for key, (convert, expected) in _KEYS[name].items():
        text = raw.get(key, "").strip()
        if not text:
            continue
        try:
            values[key] = convert(text)
        except ValueError:
            raise ValueError(f"[{name}] {key}: expected {expected}, got '{text}'") from None
    return values


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse INI text into a validated, fully defaulted ExperimentConfig."""
    # no default section: a [DEFAULT] header is an unknown section like any
    # other, instead of a block whose keys silently reach every section
    parser = configparser.ConfigParser(interpolation=None, default_section="\0")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"config syntax error: {exc}") from None

    for section in parser.sections():
        if section not in _KEYS:
            raise ValueError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _KEYS[section]:
                raise ValueError(f"unknown key '{key}' in [{section}]")

    sections = {name: cls(**_values(parser, name)) for name, cls in _SECTION_CLASSES.items()}
    return ExperimentConfig(**sections, **_values(parser, "run"))


def parse_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate an experiment config file; a UTF-8 byte-order
    mark is skipped.
    """
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"config file not found: {p}")
    return parse_config_text(p.read_text(encoding="utf-8-sig"))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def resolved_ini(cfg: ExperimentConfig) -> str:
    """Render a config with every default materialized.

    ema_alpha is written as the numeric value the run uses and
    stability_window as the effective window. iidness_prior stays 'auto'
    when set that way; its per-trial resolution is recorded in each trial
    summary instead.
    """
    resolved = {
        ("variant", "ema_alpha"): cfg.variant.resolved_alpha,
        ("run", "stability_window"): cfg.effective_window,
    }
    lines: list[str] = []
    for name, keys in _KEYS.items():
        block = cfg if name == "run" else getattr(cfg, name)
        lines.append(f"[{name}]")
        for key in keys:
            lines.append(f"{key} = {_fmt(resolved.get((name, key), getattr(block, key)))}")
        lines.append("")
    return "\n".join(lines)
