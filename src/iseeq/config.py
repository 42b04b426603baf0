"""Run configuration shared by the CLI subcommands.

Precedence is defaults < config file < command-line flags. The file
format is flat ``key = value`` lines with ``#`` comments. Each field is
the one definition of its setting: the CLI reads the flag type, help
text and shown default from it, and the file parser reads the cast.
"""

from __future__ import annotations

from dataclasses import Field, dataclass, field, fields
from pathlib import Path

from .embeddings import read_lines
from .errors import ParseError


def _setting(default, help: str):
    return field(default=default, metadata={"help": help})


def setting_type(f: Field) -> type:
    """Cast for a setting's flag or config-file value."""
    return float if f.type == "float" else int


def _check_count(name: str, value) -> None:
    """Raise ``ValueError`` when a setting that counts something is below 1."""
    if name in ("top_k", "top_n", "code_bits", "itq_iters", "probe") and value < 1:
        raise ValueError(f"{name} must be >= 1, not {value}")


@dataclass
class RunConfig:
    alpha: float = _setting(0.1971, "reward mix of exact-overlap and soft-match terms, reference")
    gamma: float = _setting(0.12, "epoch EMA weight for loss tuning, reference")
    nes_threshold: float = _setting(0.80, "strict entity-score filter, reference")
    top_k: int = _setting(20, "passages kept after filtering, reference")
    top_n: int = _setting(100, "candidates fetched before re-ranking")
    code_bits: int = _setting(64, "binary code width")
    itq_iters: int = _setting(50, "rotation refinement rounds")
    probe: int | None = _setting(None, "Hamming candidates examined (default 8 * top_k)")
    seed: int = _setting(42, "rotation-init seed; the only stochastic step")
    cosine_relevance: float = _setting(0.70, "relevance cosine cut for evaluation, reference")

    def __post_init__(self):
        if self.probe is None:
            self.probe = 8 * self.top_k
        for f in fields(self):
            _check_count(f.name, getattr(self, f.name))

    @classmethod
    def load(
        cls, path: str | Path | None = None, overrides: dict | None = None
    ) -> "RunConfig":
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
            key = key.strip()
            raw = raw.strip()
            if key not in settings:
                raise ParseError(f"{path}: unknown config key {key!r}", line_no)
            try:
                values[key] = setting_type(settings[key])(raw)
                _check_count(key, values[key])
            except ValueError as exc:
                raise ParseError(f"{path}: bad value for {key}: {raw!r} ({exc})", line_no) from exc
        return values
