"""Run configuration shared by the CLI subcommands and the library.

Precedence is defaults < config file < command-line flags. The file
format is flat ``key = value`` lines with ``#`` comments. Each field is
the one definition of its setting's default, range, help text and flag
(``--`` plus the name with dashes); library defaults are the class
attributes (``RunConfig.top_k``), and every range check calls
:func:`check_setting`.
"""

from __future__ import annotations

import math
from dataclasses import Field, dataclass, field, fields
from pathlib import Path

from .embeddings import read_lines
from .errors import ParseError


def _setting(default, help: str, low: float, high: float = math.inf, *, high_open: bool = False):
    """A field with its help text and its range, ``[low, high]`` or ``[low, high)``."""
    return field(default=default, metadata={"help": help, "range": (low, high, high_open)})


def setting_type(f: Field) -> type:
    """Cast for a setting's flag or config-file value."""
    return float if f.type == "float" else int


def check_setting(name: str, value) -> None:
    """Raise ``ValueError`` when ``value`` is outside setting ``name``'s range; NaN always is."""
    low, high, high_open = _RANGES[name]
    if not low <= value <= high or (high_open and value == high):
        closing = ")" if high_open else "]"
        allowed = f">= {low:g}" if high == math.inf else f"in [{low:g}, {high:g}{closing}"
        raise ValueError(f"{name} must be {allowed}, not {value}")


@dataclass
class RunConfig:
    alpha: float = _setting(0.1971, "reward mix of exact-overlap and soft-match terms, reference", 0, 1)
    gamma: float = _setting(0.12, "epoch EMA weight for loss tuning, reference", 0, 1)
    nes_threshold: float = _setting(0.80, "strict entity-score filter, reference", 0, 1, high_open=True)
    top_k: int = _setting(20, "passages kept after filtering, reference", 1)
    top_n: int = _setting(100, "candidates fetched before re-ranking", 1)
    code_bits: int = _setting(64, "binary code width", 1, 1024)
    itq_iters: int = _setting(50, "rotation refinement rounds", 1)
    probe: int | None = _setting(None, "Hamming rows scanned (default 8 * top_k, at least top_n)", 1)
    seed: int = _setting(42, "rotation-init seed; the only stochastic step", 0)
    cosine_relevance: float = _setting(0.70, "relevance cosine cut for evaluation, reference", -1, 1)
    max_hops: int = _setting(2, "KG hops followed from each query entity", 1)
    max_triples: int = _setting(8, "KG triples injected per query entity", 1)

    def __post_init__(self):
        if self.probe is None:
            self.probe = 8 * self.top_k
        for f in fields(self):
            check_setting(f.name, getattr(self, f.name))
        self.probe = max(self.probe, self.top_n)  # the rule sitq.query applies

    @classmethod
    def load(cls, path: str | Path | None = None, overrides: dict | None = None) -> "RunConfig":
        """Build a config from an optional file plus explicit overrides."""
        values: dict = {}
        if path is not None:
            values.update(cls._parse_file(Path(path)))
        for key, value in (overrides or {}).items():
            if value is not None:
                values[key] = value
        return cls(**values)

    @classmethod
    def _parse_file(cls, path: Path) -> dict:
        settings = {f.name: f for f in fields(cls)}
        values: dict = {}
        for line_no, line in read_lines(path):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}: expected 'key = value'", line_no)
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in settings:
                raise ParseError(f"{path}: unknown config key {key!r}", line_no)
            try:
                values[key] = setting_type(settings[key])(raw)
                check_setting(key, values[key])
            except ValueError as exc:
                raise ParseError(f"{path}: bad value for {key}: {raw!r} ({exc})", line_no) from exc
        return values


_RANGES = {f.name: f.metadata["range"] for f in fields(RunConfig)}
