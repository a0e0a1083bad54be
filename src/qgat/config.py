"""Experiment configuration: one strict INI file plus dotted-key overrides.

Every run resolves to a full (section, key) -> value map; unknown sections
or keys are rejected, values are parsed against the declared type, and the
resolved map is echoed back to disk so any run can be reproduced from its
echo file alone.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .training import TrainConfig


class ConfigError(Exception):
    """Invalid configuration; CLI maps this to exit code 2."""


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _str_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


# (section, key) -> (parser, TrainConfig field) for the keys that configure one
# training run; their defaults are read from TrainConfig() and nowhere else.
TRAIN_KEYS: dict[tuple[str, str], tuple[Any, str]] = {
    ("experiment", "task"): (str, "task"),
    ("model", "hidden_dims"): (_int_list, "hidden_dims"),
    ("model", "heads"): (_int_list, "heads_per_layer"),
    ("model", "n_qubits"): (int, "n_qubits"),
    ("model", "entangling_layers"): (int, "entangling_layers"),
    ("model", "dropout"): (float, "dropout"),
    ("model", "merge"): (str, "merge"),
    ("model", "activation"): (str, "activation"),
    ("model", "separate_value_weights"): (_bool, "separate_value_weights"),
    ("training", "lr"): (float, "learning_rate"),
    ("training", "lr_min"): (float, "lr_min"),
    ("training", "weight_decay"): (float, "weight_decay"),
    ("training", "epochs"): (int, "epochs"),
    ("training", "patience"): (int, "patience"),
}


def _with_train_defaults(schema: dict[str, dict[str, tuple[Any, Any]]]):
    """Each section's TRAIN_KEYS entries first, defaulted from TrainConfig()."""
    defaults = TrainConfig()
    merged: dict[str, dict[str, tuple[Any, Any]]] = {section: {} for section in schema}
    for (section, key), (parser, name) in TRAIN_KEYS.items():
        merged[section][key] = (parser, getattr(defaults, name))
    for section, entries in schema.items():
        merged[section].update(entries)
    return merged


# (parser, default) per key; parsers also serve as type documentation.
SCHEMA: dict[str, dict[str, tuple[Any, Any]]] = _with_train_defaults({
    "experiment": {
        "models": (_str_list, ["qgat"]),
        "seeds": (_int_list, [0]),
    },
    "data": {
        "source": (str, "synth"),  # synth | csv | json
        "path": (str, ""),
        "n_per_class": (int, 30),
        "n_classes": (int, 2),
        "p_in": (float, 0.3),
        "p_out": (float, 0.02),
        "feature_dim": (int, 8),
        "class_sep": (float, 1.0),
        "seed": (int, 0),
    },
    "model": {},
    "training": {},
    "noise": {
        "kind": (str, "feature"),  # feature | structural
        "levels": (_float_list, []),  # empty -> protocol grid for the kind
    },
    "linkpred": {
        "frac_val": (float, 0.1),
        "frac_test": (float, 0.2),
        "neg_ratio": (int, 1),
        "hits_k": (int, 50),
    },
    "gradcheck": {
        "qubits": (_int_list, [2, 3, 4]),
        "layers": (_int_list, [1, 2, 3]),
        "trials": (int, 10),
        "threshold": (float, 1e-4),
    },
})


def _format_value(value: Any) -> str:
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return str(value)


@dataclass
class Config:
    values: dict[str, dict[str, Any]]

    def get(self, section: str, key: str) -> Any:
        return self.values[section][key]

    def set(self, section: str, key: str, raw: str) -> None:
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown configuration key {section}.{key}")
        parser, _ = SCHEMA[section][key]
        try:
            self.values[section][key] = parser(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {section}.{key}: {exc}") from None

    def echo(self, path: str | Path) -> None:
        lines = ["# effective configuration (machine-written; reusable via --config)"]
        for section, entries in self.values.items():
            lines.append(f"[{section}]")
            for key, value in entries.items():
                lines.append(f"{key} = {_format_value(value)}")
            lines.append("")
        Path(path).write_text("\n".join(lines))


def default_config() -> Config:
    return Config({s: {k: d for k, (_, d) in entries.items()} for s, entries in SCHEMA.items()})


def parse_config(path: str | Path | None) -> Config:
    cfg = default_config()
    if path is None:
        return cfg
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            cfg.set(section, key, raw)
    return cfg


def apply_overrides(cfg: Config, overrides: list[str]) -> None:
    """Apply ``section.key=value`` strings on top of the parsed file."""
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        cfg.set(section.strip(), key.strip(), raw.strip())


def make_train_config(cfg: Config, model: str, seed: int, task: str | None = None) -> TrainConfig:
    fields = {}
    for (section, key), (_, name) in TRAIN_KEYS.items():
        value = cfg.get(section, key)
        fields[name] = list(value) if isinstance(value, list) else value
    fields["task"] = task or fields["task"]
    tc = TrainConfig(**fields, seed=seed, model=model)
    try:
        tc.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return tc
