"""Experiment configuration: one strict INI file plus dotted-key overrides.

Every run resolves to a full (section, key) -> value map; unknown sections
or keys are rejected, and the resolved map is echoed back to disk so any run
can be reproduced from its echo file alone.

Each key has exactly one rule.  A key's rule sits beside its default in
``SCHEMA``: its parser rejects a value of the wrong type or range, and a
list whose items repeat or are out of order where that matters.  The keys
that configure one training run are checked by ``TrainConfig.validate``
alone, which ``check`` runs once.  ``check`` also holds the few rules that
join two keys.  Each choice list is read from its table: ``attention.SCORERS``,
``training.TASKS`` (in ``validate``), ``graph.LOADERS`` and ``graph.NOISE``.
"""

from __future__ import annotations

import configparser
import itertools
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from .files import atomic_write
from .attention import MODEL_KINDS
from .graph import LOADERS, NOISE
from .training import TrainConfig


class ConfigError(Exception):
    """Invalid configuration; CLI maps this to exit code 2."""


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _str_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _checked(parse, ok, rule: str, *, nonempty: bool = False):
    """``parse``, then reject a value, or any item of a list, that fails ``ok``."""
    def checked(text: str):
        value = parse(text)
        items = value if isinstance(value, list) else [value]
        if nonempty and not items:
            raise ValueError("needs at least one item")
        for item in items:
            if not ok(item):
                raise ValueError(f"{item!r} is not {rule}")
        return value
    return checked


def _pairwise(parse, ok, rule: str):
    """``parse``, then reject a list with an item a before an item b that fail ``ok(a, b)``."""
    def checked(text: str):
        value = parse(text)
        for a, b in itertools.combinations(value, 2):
            if not ok(a, b):
                raise ValueError(f"items must {rule}, got {a!r} before {b!r}")
        return value
    return checked


# Every rule is written so that NaN fails it.
def _at_least(parse, low, **kw):
    return _checked(parse, lambda v: v >= low, f">= {low}", **kw)


def _one_of(parse, choices, **kw):
    return _checked(parse, lambda v: v in choices, f"one of {', '.join(choices)}", **kw)


_FRACTION = _checked(float, lambda v: 0 <= v <= 1, "in [0, 1]")


# (section, key) -> (parser, TrainConfig field) for the keys that configure one
# training run; their defaults are read from TrainConfig() and nowhere else.
TRAIN_KEYS: dict[tuple[str, str], tuple[Any, str]] = {
    ("experiment", "task"): (str, "task"),
    ("model", "hidden_dims"): (_int_list, "hidden_dims"),
    ("model", "heads"): (_int_list, "heads_per_layer"),
    ("model", "n_qubits"): (int, "n_qubits"),
    ("model", "entangling_layers"): (int, "entangling_layers"),
    ("model", "dropout"): (float, "dropout"),
    ("training", "lr"): (float, "learning_rate"),
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
        "models": (_pairwise(_one_of(_str_list, MODEL_KINDS, nonempty=True), operator.ne,
                             "differ"), ["qgat"]),
        "seeds": (_pairwise(_at_least(_int_list, 0, nonempty=True), operator.ne, "differ"),
                  [0]),
    },
    "data": {
        "source": (_one_of(str, ("synth", *LOADERS)), "synth"),
        "path": (str, ""),  # required unless source is synth
        "n_per_class": (_at_least(int, 1), 30),
        "n_classes": (_at_least(int, 1), 2),
        "p_in": (_FRACTION, 0.3),
        "p_out": (_FRACTION, 0.02),  # at most p_in
        "feature_dim": (_at_least(int, 1), 8),
        "class_sep": (_checked(float, math.isfinite, "finite"), 1.0),
        "seed": (_at_least(int, 0), 0),
    },
    "model": {},
    "training": {},
    "noise": {
        "kind": (_one_of(str, NOISE), "feature"),
        # empty -> protocol grid for the kind; the sweep's summary reads the last level
        "levels": (_pairwise(_at_least(_float_list, 0), operator.lt, "strictly increase"), []),
    },
    "linkpred": {
        "frac_val": (_FRACTION, 0.1),  # frac_val + frac_test below 1
        "frac_test": (_FRACTION, 0.2),
        "neg_ratio": (_at_least(int, 1), 1),
        "hits_k": (_at_least(int, 1), 50),
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

    def echo(self, path: str | Path, notes: Sequence[str]) -> None:
        """The resolved map as INI, ``notes`` as comment lines after the header."""
        lines = ["# effective configuration (machine-written; reusable via --config)"]
        lines += [f"# {note}" for note in notes]
        for section, entries in self.values.items():
            lines.append(f"[{section}]")
            for key, value in entries.items():
                lines.append(f"{key} = {_format_value(value)}")
            lines.append("")
        with atomic_write(path) as fh:
            fh.write("\n".join(lines))


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


def check(cfg: Config) -> None:
    """The rules that join two keys, then ``TrainConfig.validate``; the rest run on set."""
    p_in, p_out = cfg.get("data", "p_in"), cfg.get("data", "p_out")
    if p_out > p_in:
        raise ConfigError(f"data.p_out must not exceed data.p_in, got {p_out} > {p_in}")
    frac_val, frac_test = cfg.get("linkpred", "frac_val"), cfg.get("linkpred", "frac_test")
    if not frac_val + frac_test < 1:
        raise ConfigError("linkpred.frac_val and linkpred.frac_test must sum below 1, "
                          f"got {frac_val} and {frac_test}")
    if cfg.get("data", "source") != "synth" and not cfg.get("data", "path"):
        raise ConfigError("data.path is required when data.source is not 'synth'")
    make_train_config(cfg, cfg.get("experiment", "models")[0], cfg.get("experiment", "seeds")[0])


def make_train_config(cfg: Config, model: str, seed: int) -> TrainConfig:
    fields = {}
    for (section, key), (_, name) in TRAIN_KEYS.items():
        value = cfg.get(section, key)
        fields[name] = list(value) if isinstance(value, list) else value
    tc = TrainConfig(**fields, seed=seed, model=model)
    try:
        tc.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return tc
