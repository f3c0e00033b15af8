"""In-memory spans around calls into the wica_lab modules.

A span is (name, start, end, parent): times come from time.perf_counter
and parent is the index of the enclosing span, or -1.  The benchmark
opens its own spans ("bench.*", "cli.*") around each stage it runs;
while a Tracer is installed, every public function listed in PUBLIC is
also wrapped, so its calls appear as child spans named
"<module>.<function>".  The package source is never edited: the wrappers
replace the module attributes (and every re-import of the same function
object in other package modules) and are removed again on uninstall.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path

from wica_lab import cli, core, datagen, metrics, mixer, trainer, wii
import wica_lab

# The public functions behind the per-layer metrics.  `oracles` is test-only and `errors`
# does no work, so neither is listed; private helpers are never wrapped.
PUBLIC = {
    core: ("load_csv", "save_csv", "normalize_componentwise", "average_ranks",
           "pearson_corr_matrix", "sample_haar_orthogonal"),
    wii: ("wii_at_point", "sample_weighting_points", "wii_index"),
    mixer: ("build_pipeline", "mix", "unmix_exact"),
    trainer: ("train", "mlp_forward", "encode", "wica_cost", "cost_gradient"),
    metrics: ("score", "spearman_distance_matrix", "solve_assignment"),
    datagen: ("generate",),
}

_NAMESPACES = (core, wii, mixer, trainer, metrics, datagen, cli, wica_lab)


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Collects spans; install() adds the per-function wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def install(self) -> None:
        for module, names in PUBLIC.items():
            for name in names:
                original = getattr(module, name)
                wrapped = self._wrap(f"{_short(module)}.{name}", original)
                for ns in _NAMESPACES:
                    if getattr(ns, name, None) is original:
                        setattr(ns, name, wrapped)
                        self._patched.append((ns, name, original))

    def uninstall(self) -> None:
        for ns, name, original in reversed(self._patched):
            setattr(ns, name, original)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def durations(self, name: str, parent: str | None = None) -> list[float]:
        """Seconds spent in each span called `name`, optionally only
        those whose direct parent is called `parent`."""
        out = []
        for span_name, start, end, up in self.spans:
            if span_name != name or end is None:
                continue
            if parent is not None and (up < 0 or self.spans[up][0] != parent):
                continue
            out.append(end - start)
        return out

    def write(self, path: Path) -> None:
        doc = [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.spans
        ]
        path.write_text(json.dumps(doc) + "\n")
