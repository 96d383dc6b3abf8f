"""Span tracer for the census pipeline, installed from outside the program.

Each traced layer is a function of the ``ladget`` package.  ``install``
replaces the function at every place it is bound (its defining module, the
package namespace and every module that imported it by name, such as
``search.all_colorings`` and ``gadget.all_colorings``), so nothing under
``src/`` changes.  Calls made through module attributes, and imports done
inside function bodies, see the wrapper too.

Spans (layer, parent span, start, end) are kept in memory and reduced when
the traced run ends.  A layer's self time is its spans' duration minus the
time covered by their child spans.  Kernel helpers that only one layer calls
(``colorings_into``, ``canonical_key``, ``canon_columns``) are deliberately
not layers: their time belongs to the layer that owns them.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter


def _scan_counts(args, res):
    return {
        "configs": int(len(args[3])),
        "kept": int((res != -1).sum()),
        "ladgets": int((res >= 0).sum()),
    }


# Layer name -> counter hook (args, result) -> {counter: increment}.
# Names are "<module>.<function>" within the ladget package.
LAYERS = {
    "graphcore.decode_graph6": None,
    "graphcore.encode_graph6": None,
    "graphcore.config_canonical_key": None,
    "coloring.all_colorings": lambda args, res: {"rows": int(res.shape[0])},
    "_kernels.scan_configs": _scan_counts,
    "filters.structural_filter": None,
    "gadget.verify_ladget": None,
    "gadget.compute_mapping": None,
    "gadget.check_universality": None,
    "gadget.check_consistency": None,
    "embed.embed_to_k": None,
    "embed.verify_embedding": None,
    "embed.package_color_profile": None,
    "appendix.check_table": None,
    "search.search_stream": None,
    "search.dedupe_hits": lambda args, res: {
        "hits_in": len(args[0]),
        "hits_out": len(res),
    },
}


class Tracer:
    """Records one span per call of each installed layer."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, parent index, start, end]
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, layer: str, func, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [layer, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if count is not None:
                for key, val in count(args, result).items():
                    counts[layer][key] += val
            return result

        return traced

    def install(self) -> None:
        """Rebind every layer at all its call sites.  A layer the program
        does not have is skipped, and its metrics read zero."""
        for layer, count in LAYERS.items():
            mod_name, func_name = layer.rsplit(".", 1)
            module = importlib.import_module(f"ladget.{mod_name}")
            orig = getattr(module, func_name, None)
            if not callable(orig):
                continue
            wrapper = self._wrap(layer, orig, count)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (
                    name == "ladget" or name.startswith("ladget.")
                ):
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def layer_stats(self) -> dict:
        """Per layer: calls, self_s, total_s, counters; plus, for each
        layer, how many of its calls ran beneath a verify_ladget span."""
        n = len(self.spans)
        child_time = [0.0] * n
        under_verify = [False] * n
        for i, (layer, parent, start, end) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                under_verify[i] = (
                    under_verify[parent]
                    or self.spans[parent][0] == "gadget.verify_ladget"
                )
        stats: dict = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                     "calls_under_verify": 0}
        )
        for i, (layer, _, start, end) in enumerate(self.spans):
            s = stats[layer]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child_time[i]
            s["calls_under_verify"] += under_verify[i]
        for layer, counters in self.counts.items():
            stats[layer].update(counters)
        return dict(stats)
