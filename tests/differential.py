"""Differential gate: both solve routes against the oracle on every small graph.

Asks every k from 0 to n + 1 on each graph of ``brutes.graphs_upto_seven()``
(91,441 questions), twice: once of the palette search alone
(``brutes.palette_route``: ``solve_exact`` with the oracle's decider
stalled, so preprocessing, twin trim, palette search and lift), and once
of ``solve_exact``, which races the oracle's decider against the palette
search. Each verdict is compared with
``sigma_exact(edge_limit=None)``; every YES witness is verified inside the
solver. Prints the number of questions, of disagreements per route, the
palette route's summed search counters, its widest branch and a SHA-256
over its answers in question order (n, edges, k, verdict, witness colors
and all ``SolveStats`` fields), so that two versions give identical
outputs exactly when their digests match. A second SHA-256 covers
``solve_exact`` the same way, plus the engine that answered. A third
covers the oracle alone: each graph's n, edges, sigma and witness colors,
in graph order. A fourth covers the kernels: on each graph, for every k
from 0 to n + 1, the outcome of ``kernelize_standard``, of
``kernelize_c4free`` (only on graphs without a 4-cycle) and of
``kernelize_dual`` at deficit k, each outcome being the error raised, the
verdict with its witness, or the reduced graph with its parameter and
lifting. Exits 1 on any disagreement, or when ``--expect``,
``--expect-route``, ``--expect-oracle`` or ``--expect-kernels`` names a
digest and the run gives another one, so that a change to any witness or
counter of either search, to the engine that answers, or to any kernel
output, is seen. pytest does not collect this file; run it from the root
of a checkout::

    PYTHONPATH=src python tests/differential.py [--expect SHA256] [--expect-route SHA256] [--expect-oracle SHA256] [--expect-kernels SHA256]
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from dataclasses import asdict

from brutes import graphs_upto_seven, palette_route
from maxec import (
    ForcedYes,
    Reduced,
    has_c4,
    kernelize_c4free,
    kernelize_dual,
    kernelize_standard,
    sigma_exact,
    solve_exact,
)


def kernel_outcome(kernelize, g, k):
    """What one kernel call gives, in a form that ``repr`` pins down."""
    try:
        res = kernelize(g, k)
    except ValueError as exc:
        return type(exc).__name__
    verdict = res.verdict
    if isinstance(verdict, Reduced):
        lifting = res.lifting
        return ("reduced", verdict.graph.n, verdict.graph.edges, verdict.k,
                lifting.vertex_map, lifting.actions)
    if isinstance(verdict, ForcedYes):
        return ("yes", list(verdict.witness))
    return ("no",)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--expect", metavar="SHA256",
                        help="exit 1 unless the palette route's digest equals this one")
    parser.add_argument("--expect-route", metavar="SHA256",
                        help="exit 1 unless solve_exact's digest equals this one")
    parser.add_argument("--expect-oracle", metavar="SHA256",
                        help="exit 1 unless the oracle's digest equals this one")
    parser.add_argument("--expect-kernels", metavar="SHA256",
                        help="exit 1 unless the kernels' digest equals this one")
    args = parser.parse_args()
    start = time.perf_counter()
    questions = 0
    wrong = []
    route_wrong = []
    totals: dict[str, int] = {}
    widest = 0
    digest = hashlib.sha256()
    route_digest = hashlib.sha256()
    oracle_digest = hashlib.sha256()
    kernel_digest = hashlib.sha256()
    kernel_calls = 0
    for g in graphs_upto_seven():
        rules = [kernelize_standard, kernelize_dual]
        if has_c4(g) is None:
            rules.insert(1, kernelize_c4free)
        for k in range(g.n + 2):
            outcomes = [kernel_outcome(rule, g, k) for rule in rules]
            kernel_calls += len(rules)
            kernel_digest.update(repr((g.n, g.edges, k, outcomes)).encode())
        best = sigma_exact(g, edge_limit=None)
        sigma = best.sigma
        oracle_digest.update(repr((g.n, g.edges, sigma, best.witness.colors)).encode())
        for k in range(g.n + 2):
            res = solve_exact(g, k)
            if res.yes != (sigma >= k):
                route_wrong.append((g.n, g.edges, k, sigma))
            witness = None if res.witness is None else list(res.witness)
            route_digest.update(repr((g.n, g.edges, k, res.yes, witness,
                                      tuple(asdict(res.stats).items()),
                                      res.engine)).encode())
            res = palette_route(g, k)
            questions += 1
            if res.yes != (sigma >= k):
                wrong.append((g.n, g.edges, k, sigma))
            stats = asdict(res.stats)
            witness = None if res.witness is None else list(res.witness)
            digest.update(repr((g.n, g.edges, k, res.yes, witness,
                                tuple(stats.items()))).encode())
            widest = max(widest, stats.pop("across_branch_max_width"))
            for name, value in stats.items():
                totals[name] = totals.get(name, 0) + value
    for route, found in (("palettes", wrong), ("solve_exact", route_wrong)):
        for n, edges, k, sigma in found[:20]:
            print(f"disagree ({route}): n={n} edges={edges} k={k} sigma={sigma}")
    counters = ", ".join(f"{name} {value:,}" for name, value in totals.items())
    print(f"{questions:,} questions, {len(wrong)} + {len(route_wrong)} "
          f"disagreements (palettes + solve_exact); {counters}; "
          f"across_branch_max_width {widest}; {kernel_calls:,} kernel calls; "
          f"{time.perf_counter() - start:.1f} s")
    print(f"sha256 {digest.hexdigest()}")
    print(f"route sha256 {route_digest.hexdigest()}")
    print(f"oracle sha256 {oracle_digest.hexdigest()}")
    print(f"kernel sha256 {kernel_digest.hexdigest()}")
    failed = bool(wrong or route_wrong)
    for name, got, want in (("digest", digest, args.expect),
                            ("route digest", route_digest, args.expect_route),
                            ("oracle digest", oracle_digest, args.expect_oracle),
                            ("kernel digest", kernel_digest, args.expect_kernels)):
        if want is not None and got.hexdigest() != want:
            print(f"{name} differs from the expected {want}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
