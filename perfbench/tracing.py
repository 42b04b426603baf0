"""Outside-in spans around the program's public functions.

For the traced pass only, :meth:`Tracer.install` replaces each function
in :data:`WRAPPED` at the module attribute its callers look up, so
``kpr.retrieve`` calling ``sitq.query`` or ``wmd_exact`` passes through
a wrapper. Nothing under ``src/`` is edited. Each span records its
name, start, end, parent span and operation id; spans stay in memory
until the run writes them out. :meth:`Tracer.remove` restores the
original functions.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name). A function imported by name into a
# second module is wrapped there too, under the same span name.
WRAPPED = [
    ("iseeq.sitq", "query", "sitq.query"),
    ("iseeq.sitq", "build_index", "sitq.build_index"),
    ("iseeq.sitq", "save_index", "sitq.save_index"),
    ("iseeq.sitq", "load_index", "sitq.load_index"),
    ("iseeq.kpr", "retrieve", "kpr.retrieve"),
    ("iseeq.kpr", "nes", "kpr.nes"),
    ("iseeq.kpr", "coverage_loop", "kpr.coverage_loop"),
    ("iseeq.kpr", "wmd_exact", "wmd.wmd_exact"),
    ("iseeq.wmd", "wmd_exact", "wmd.wmd_exact"),
    ("iseeq.losses", "soft_match", "wmd.soft_match"),
    ("iseeq.embeddings", "load_vectors", "embeddings.load_vectors"),
    ("iseeq.cli", "load_vectors", "embeddings.load_vectors"),
    ("iseeq.embeddings", "build_token_doc", "embeddings.build_token_doc"),
    ("iseeq.cli", "build_token_doc", "embeddings.build_token_doc"),
    ("iseeq.losses", "build_token_doc", "embeddings.build_token_doc"),
    ("iseeq.kg", "load_kg", "kg.load_kg"),
    ("iseeq.cli", "load_kg", "kg.load_kg"),
    ("iseeq.sqe", "expand_query", "sqe.expand_query"),
    ("iseeq.cli", "expand_query", "sqe.expand_query"),
    ("iseeq.losses", "reward", "losses.reward"),
    ("iseeq.losses", "lcs_len", "losses.lcs_len"),
    ("iseeq.losses", "ce_loss", "losses.ce_loss"),
    ("iseeq.losses", "rce_loss", "losses.rce_loss"),
    ("iseeq.losses", "erl_step_loss", "losses.erl_step_loss"),
    ("iseeq.losses", "load_loss_batch", "losses.load_loss_batch"),
    ("iseeq.metrics", "lc_score", "metrics.lc_score"),
    ("iseeq.cli", "cmd_retrieve", "cli.retrieve"),
    ("iseeq.cli", "cmd_score_losses", "cli.score_losses"),
    ("iseeq.cli", "cmd_evaluate", "cli.evaluate"),
]

NAME, START, END, PARENT, OP, ERROR = range(6)


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op_id, error]
        self.op_id = "setup"
        self.calls: dict[str, list] = defaultdict(list)  # span name -> [(args, result)] for keep_args spans
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the body; an exception marks it failed."""
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        except BaseException as exc:
            span[ERROR] = type(exc).__name__
            raise
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, keep_args: bool):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if keep_args:
                tracer.calls[name].append((args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, keep_args: frozenset[str] = frozenset()) -> None:
        """Wrap every function in WRAPPED; ``keep_args`` names spans whose
        arguments and results are kept for counters."""
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, name in keep_args))

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
