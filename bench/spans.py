"""Per-layer spans taken from outside the program.

The tracer replaces each layer's public entry point, at the module where
it is called, with a wrapper that records a span: name, start, end,
parent span and operation id. Counters come from the values the calls
return. Nothing under ``src/`` changes; a name that no longer exists is
listed as missing instead of failing the run.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    info: dict


def _solver_info(args, res):
    stats = res.stats
    return {
        "palettes": stats.palettes,
        "x_guesses": stats.x_guesses,
        "top_branch_events": stats.top_branch_events,
        "across_branch_events": stats.across_branch_events,
        "useful": int(res.yes and stats.palettes > 0),
    }


def _matching_info(args, res):
    kind = type(res).__name__
    cover = getattr(res, "cover", None)
    return {"forced": int(kind in ("ForcedYes", "ForcedNo")),
            "cover": None if cover is None else len(cover)}


def _kernel_info(args, res):
    reduced = getattr(res.verdict, "graph", None)
    if reduced is None:
        return {}
    g = args[0]
    return {"n_before": g.n, "n_after": reduced.n, "m_before": g.m, "m_after": reduced.m}


def _load_info(args, res):
    return {"bytes": len(args[0])}


def _oracle_info(args, res):
    return {"edges": args[0].m}


# (module, attribute, span name, counter extractor): each entry point is
# wrapped where the layer above calls it
RUN_POINTS = (
    ("cli", "load_instance", "formats.load", _load_info),
    ("cli", "load_coloring", "formats.load", _load_info),
    ("cli", "render_coloring", "formats.render", None),
    ("cli", "render_graph", "formats.render", None),
    ("cli", "solve_exact", "solver.search", _solver_info),
    ("solver", "matching_preprocess", "matching.preprocess", _matching_info),
    ("kernels", "matching_preprocess", "matching.preprocess", _matching_info),
    ("cli", "matching_coloring", "matching.coloring", None),
    ("cli", "kernelize_standard", "kernels.standard", _kernel_info),
    ("cli", "kernelize_dual", "kernels.dual", _kernel_info),
    ("cli", "kernelize_c4free", "kernels.c4free", _kernel_info),
    ("cli", "lift_coloring", "kernels.lift", None),
    ("cli", "sigma_exact", "oracle.sigma", _oracle_info),
    ("cli", "verify_coloring", "graphs.verify", None),
    ("solver", "verify_coloring", "graphs.verify", None),
    ("kernels", "verify_coloring", "graphs.verify", None),
    ("matching", "verify_coloring", "graphs.verify", None),
)

SETUP_POINTS = (
    ("generators", "gen_random", "generators.gen", None),
    ("generators", "gen_two_factor", "generators.gen", None),
    ("generators", "reduce_mcis", "generators.gen", None),
)

LAYERS = ("cli", "formats", "matching", "solver", "kernels", "oracle", "graphs")


class Tracer:
    """Spans kept in memory for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = -1
        self.missing: list[str] = []
        self._patched: list[tuple] = []

    def install(self, mx, points) -> None:
        for module_name, attr, name, info in points:
            module = getattr(mx, module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"maxec.{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name, info))
            self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, fn, name, info):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                self.close(index)
            if info is not None:
                self.spans[index].info = info(args, res)
            return res
        return traced

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op, {}))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        # an exception (or the bench's budget alarm) may have skipped inner
        # closes; drop everything above this span
        while self.stack and self.stack.pop() != index:
            pass

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        out: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            out[span.name] = out.get(span.name, 0.0) + span.end - span.start - child[i]
        return out

    def total(self, name: str, key: str) -> int:
        return sum(s.info.get(key) or 0 for s in self.spans if s.name == name)


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    times = tracer.self_times()
    op_time = sum(s.end - s.start for s in tracer.spans if s.name == "cli.run")
    t = lambda name: times.get(name, 0.0)  # noqa: E731
    total = tracer.total
    preprocess = [s for s in tracer.spans if s.name == "matching.preprocess"]
    covers = [s.info["cover"] for s in preprocess if s.info.get("cover") is not None]
    palettes = total("solver.search", "palettes")
    kept = {
        key: sum(total(name, key) for name in ("kernels.standard", "kernels.dual", "kernels.c4free"))
        for key in ("n_before", "n_after", "m_before", "m_after")
    }
    out = {
        "cli.self_s": t("cli.run"),
        "formats.load_s": t("formats.load"),
        "formats.render_s": t("formats.render"),
        "formats.bytes_in": total("formats.load", "bytes"),
        "matching.preprocess_s": t("matching.preprocess"),
        "matching.coloring_s": t("matching.coloring"),
        "matching.forced_share": (
            sum(s.info.get("forced", 0) for s in preprocess) / len(preprocess)
            if preprocess else 0.0),
        "matching.cover_mean": statistics.mean(covers) if covers else 0.0,
        "solver.search_s": t("solver.search"),
        "solver.palettes": palettes,
        "solver.x_guesses": total("solver.search", "x_guesses"),
        "solver.top_branch_events": total("solver.search", "top_branch_events"),
        "solver.across_branch_events": total("solver.search", "across_branch_events"),
        "solver.yes_per_palette": total("solver.search", "useful") / palettes if palettes else 0.0,
        "solver.s_per_palette": t("solver.search") / palettes if palettes else 0.0,
        "kernels.standard_s": t("kernels.standard"),
        "kernels.dual_s": t("kernels.dual"),
        "kernels.c4free_s": t("kernels.c4free"),
        "kernels.lift_s": t("kernels.lift"),
        "kernels.n_kept": kept["n_after"] / kept["n_before"] if kept["n_before"] else 0.0,
        "kernels.m_kept": kept["m_after"] / kept["m_before"] if kept["m_before"] else 0.0,
        "graphs.verify_s": t("graphs.verify"),
        "oracle.sigma_s": t("oracle.sigma"),
        "oracle.edges": total("oracle.sigma", "edges"),
    }
    for layer in LAYERS:
        share = sum(v for k, v in times.items() if k.split(".")[0] == layer)
        out[f"{layer}.share"] = share / op_time if op_time else 0.0
    return out


UNITS = {
    "formats.bytes_in": "B",
    "matching.forced_share": "ratio",
    "matching.cover_mean": "vertices",
    "solver.palettes": "count",
    "solver.x_guesses": "count",
    "solver.top_branch_events": "count",
    "solver.across_branch_events": "count",
    "solver.yes_per_palette": "ratio",
    "kernels.n_kept": "ratio",
    "kernels.m_kept": "ratio",
    "oracle.edges": "count",
    "trace.missing": "count",
}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "ratio" if name.endswith(".share") else "s"
