"""INI-style run configuration: parse, validate, render.

A run file has up to four sections.  Only ``[model]`` is required::

    [model]
    lengths = 1, 2, 3
    alpha = 1.0
    beta = 1.0
    gamma = 1.0
    response = identity      ; identity | tanh | signum
    saturation = sum         ; sum | max

    [run]
    x0 = 0.1, 0.2, 0.3
    dt = 0.02
    steps = 2000
    scheme = euler           ; euler | rk4 | exact | asymptotic
    positivity = reject      ; reject | clamp-epsilon

    [outputs]
    trajectory = out.csv
    source_column = no

    [analysis]
    window = 20.0, 39.2      ; gain-scaled fit window

``parse_config`` collects every problem it can find and raises one
``ConfigError`` listing all of them, so a bad file is fixed in one pass.
This module states no rule of its own: it parses each value as the
number, list or choice its option takes, then runs it through the
library check that the run itself makes (finiteness included), and an
error quotes that check's message as ``[section] option: <message>``.
``render_config(load)`` and ``parse_config(render)`` round-trip exactly.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, Field, dataclass, field, fields
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .analysis import window_mask
from .closedform import require_closed_form
from .models import GKind, ModelSpec, PathSystem, PhiKind, require_positive, require_positive_state
from .simulate import PositivityPolicy, Scheme, require_steps

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config", "render_config"]


class ConfigError(ValueError):
    """Raised for unreadable, malformed, or semantically invalid run files."""


_BOOL = {"yes": True, "true": True, "1": True, "no": False, "false": False, "0": False}


def _float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}")


def _int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}")


def _float_list(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(_float(p) for p in parts)


def _pair(raw: str) -> tuple[float, float]:
    values = _float_list(raw)
    if len(values) != 2:
        raise ValueError(f"expected exactly two numbers, got {len(values)}")
    return values  # type: ignore[return-value]


def _choice(kind: type[Enum]):
    allowed = tuple(k.value for k in kind)

    def convert(raw: str) -> str:
        if raw not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}; got {raw!r}")
        return raw

    return convert


def _bool(raw: str) -> bool:
    try:
        return _BOOL[raw.lower()]
    except KeyError:
        raise ValueError(f"expected yes/no, got {raw!r}")


def _option(section: str, parse, default=MISSING):
    """A run-file option: its section, its parser, and its default (none: required)."""
    return field(default=default, metadata={"section": section, "parse": parse})


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of a run file, with defaults filled in.

    Fields come in run-file order, each with its section and parser.
    """

    lengths: tuple[float, ...] = _option("model", _float_list)
    alpha: float = _option("model", _float, 1.0)
    beta: float = _option("model", _float, 1.0)
    gamma: float = _option("model", _float, 1.0)
    response: str = _option("model", _choice(GKind), "identity")
    saturation: str = _option("model", _choice(PhiKind), "sum")
    x0: Optional[tuple[float, ...]] = _option("run", _float_list, None)
    dt: float = _option("run", _float, 0.02)
    steps: int = _option("run", _int, 2000)
    scheme: str = _option("run", _choice(Scheme), "euler")
    positivity: str = _option("run", _choice(PositivityPolicy), "reject")
    trajectory: Optional[str] = _option("outputs", str, None)
    source_column: bool = _option("outputs", _bool, False)
    window: Optional[tuple[float, float]] = _option("analysis", _pair, None)

    @cached_property
    def paths(self) -> PathSystem:
        """The path system of ``lengths``, built once and shared by the methods below."""
        return PathSystem.from_lengths(self.lengths)

    def model(self) -> ModelSpec:
        return ModelSpec(
            alpha=self.alpha,
            beta=self.beta,
            gamma=self.gamma,
            phi_kind=self.saturation,
            g_kind=self.response,
            paths=self.paths,
        )

    def initial_state(self) -> np.ndarray:
        """Initial state in canonical (weight-sorted) component order."""
        if self.x0 is None:
            return np.ones(len(self.lengths))
        return self.paths.to_canonical(np.asarray(self.x0))


# section -> {option: field}, both in run-file order
_SECTIONS: dict[str, dict[str, Field]] = {}
for _f in fields(RunConfig):
    _SECTIONS.setdefault(_f.metadata["section"], {})[_f.name] = _f


def parse_config(text: str, origin: str = "<config>") -> RunConfig:
    """Parse and validate run-file text; raise ConfigError listing every problem."""
    # a default section that no run file names, so a [DEFAULT] section is reported as
    # unknown instead of having its options copied into every other section
    parser = configparser.ConfigParser(interpolation=None, strict=True, default_section="\0")
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}") from exc

    errors = []
    for section in parser.sections():
        if section not in _SECTIONS:
            errors.append(f"unknown section [{section}]")
            continue
        for option in parser.options(section):
            if option not in _SECTIONS[section]:
                errors.append(f"[{section}] unknown option {option!r}")

    values = {}
    for section, options in _SECTIONS.items():
        for option, f in options.items():
            if parser.has_option(section, option):
                try:
                    values[option] = f.metadata["parse"](parser.get(section, option).strip())
                except ValueError as exc:
                    errors.append(f"[{section}] {option}: {exc}")
            elif f.default is MISSING:
                errors.append(
                    f"[{section}] {option}: required option is missing"
                    if parser.has_section(section)
                    else f"missing required section [{section}]"
                )

    if errors:
        raise ConfigError(f"{origin}:\n  " + "\n  ".join(errors))

    config = RunConfig(**values)  # type: ignore[arg-type]
    semantic = _semantic_errors(config)
    if semantic:
        raise ConfigError(f"{origin}:\n  " + "\n  ".join(semantic))
    return config


def _semantic_errors(config: RunConfig) -> list[str]:
    """Run every value through the check the run makes, each failure under its option."""
    errors = []

    def check(option, rule, *args):
        try:
            rule(*args)
        except ValueError as exc:
            section = RunConfig.__dataclass_fields__[option].metadata["section"]
            errors.append(f"[{section}] {option}: {exc}")

    check("lengths", lambda: config.paths)
    for name in ("alpha", "beta", "gamma"):
        check(name, require_positive, name, getattr(config, name))
    if config.x0 is not None:
        check("x0", require_positive_state, config.x0, len(config.lengths))
    check("dt", require_positive, "dt", config.dt)
    check("steps", require_steps, config.steps)
    if config.scheme in ("exact", "asymptotic"):
        check("scheme", require_closed_form, config.response, config.saturation)
    if config.window is not None:
        # lo < hi here; whether the window selects a sample is rate_report's check
        check("window", window_mask, np.empty(0), config.window)
    return errors


def load_config(path) -> RunConfig:
    """Read a run file from disk; raise ConfigError if unreadable or invalid."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, origin=str(path))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


def render_config(config: RunConfig) -> str:
    """Render a RunConfig back to run-file text; inverse of parse_config."""
    lines = []
    for section, options in _SECTIONS.items():
        body = [
            f"{option} = {_fmt(value)}"
            for option in options
            if (value := getattr(config, option)) is not None
        ]
        if body:
            lines += [f"[{section}]", *body, ""]
    return "\n".join(lines)
