"""Seeded workload construction: documents, CLI calls and reference answers.

Each workload draws its instances from ``random.Random`` seeded with the
workload name and the bench seed, by structural rules only (size,
density, greedy matching size, K against sigma), writes the documents
into a work directory and returns the operations in the order one pass
runs them. Reference answers never come from the code path an operation
times: small graphs use the oracle with pendant folding, gadgets the
brute-force independent-set check, and the large families their own
construction (``judge.hub_sigma`` for hub graphs, sigma = n for cycle
covers, sigma <= m for the m < k targets).
"""

from __future__ import annotations

import os
import random
import time
from types import SimpleNamespace

from judge import Doc, Op, hub_sigma

# operations per pass at scale 1: enough that the mix of instances drawn
# by one seed moves the summed times by well under the bounds in
# BENCHMARK.json, few enough that every operation repeats several times
# in one run
FPT_YES_PER_N, FPT_NO_PER_N = 36, 36
# a NO exhausts every palette, and the palettes fall steeply with K: on
# these graphs a NO at K = 5 enumerates about 4x the palettes of one at
# K = 6, and that one about 8x those at K >= 7; so each n gets fixed
# shares of its NO operations at K = 5, K = 6 and K >= 7
FPT_NO_SHARES = {5: 1 / 6, 6: 1 / 3}
SPARSE_DOCS = 8
ORACLE_PER_CELL, ORACLE_GADGETS, ORACLE_VERIFY_EVERY = 32, 150, 4


class References:
    """Reference answers cached across set-up repetitions, with the time
    spent computing them so set-up time can leave it out."""

    def __init__(self):
        self.cache: dict = {}
        self.seconds = 0.0

    def get(self, key, compute):
        if key not in self.cache:
            start = time.perf_counter()
            self.cache[key] = compute()
            self.seconds += time.perf_counter() - start
        return self.cache[key]


def to_doc(g, caps=None) -> Doc:
    return Doc(g.n, tuple(g.edges), None if caps is None else tuple(caps))


def greedy_matching_size(doc: Doc) -> int:
    """Greedy maximal matching in edge order: the CLI's documented rule for
    when the search runs, recomputed here so the draw never depends on the
    program."""
    used = set()
    size = 0
    for u, v in doc.edges:
        if u not in used and v not in used:
            used.update((u, v))
            size += 1
    return size


class _Writer:
    def __init__(self, mx, workdir: str):
        self.mx = mx
        self.workdir = workdir
        self.count = 0

    def path(self, stem: str) -> str:
        return os.path.join(self.workdir, stem)

    def graph(self, g, caps=None, comment=None) -> str:
        self.count += 1
        path = self.path(f"g{self.count:05d}.gr")
        comments = (comment,) if comment else ()
        if caps is None:
            text = self.mx.formats.render_graph(g, comments=comments)
        else:
            text = self.mx.formats.render_annotated(g, caps, comments=comments)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _oracle_sigma(mx, refs: References, doc: Doc) -> int:
    def compute():
        g = mx.graphs.Graph(doc.n, doc.edges)
        profile = mx.graphs.ValidityProfile(f=doc.caps) if doc.caps else mx.graphs.DEFAULT_PROFILE
        return mx.oracle.sigma_exact(g, profile, edge_limit=None, fold_pendants=True).sigma
    return refs.get(("sigma", doc), compute)


def solve_fpt(rng, mx, w: _Writer, refs: References, scale: float) -> list[Op]:
    """``solve --k K`` on random graphs whose greedy matching has size 3 (a
    6-vertex cover), at K = sigma and sigma + 1 where the matching leaves
    the question open (K > r + 1, K <= m, K < n). Each n = 9..13 gets the
    same number of YES and of NO operations, and its NO operations come in
    fixed shares at K = 5, K = 6 and K >= 7, so the mix of costs changes
    little with the seed."""
    ops = []
    for n in range(9, 14):
        no = _scaled(FPT_NO_PER_N, scale)
        want = {(False, k): round(no * share) for k, share in FPT_NO_SHARES.items()}
        want[(False, 7)] = no - sum(want.values())
        want[(True, None)] = _scaled(FPT_YES_PER_N, scale)
        have = dict.fromkeys(want, 0)
        while any(have[cell] < want[cell] for cell in want):
            p = rng.uniform(0.12, 0.35)
            g = mx.generators.gen_random(n, p, rng.randrange(1 << 31))
            doc = to_doc(g)
            r = greedy_matching_size(doc)
            if r != 3:
                continue
            sigma = _oracle_sigma(mx, refs, doc)
            path = None
            for k, answer in ((sigma, True), (sigma + 1, False)):
                if not (k > r + 1 and k <= len(doc.edges) and k < doc.n):
                    continue
                cell = (True, None) if answer else (False, min(k, 7))
                if have[cell] >= want[cell]:
                    continue
                path = path or w.graph(g)
                have[cell] += 1
                ops.append(Op(["solve", "--k", str(k), path], "solve", doc,
                              {"k": k, "sigma": sigma, "answer": answer}))
    return ops


def _relabel(rng, n: int, edges) -> tuple[list[int], list[tuple[int, int]]]:
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(out)
    return perm, out


def _hub_twins(rng, mx, hubs: int, leaves: int):
    """Hubs with thousands of twin leaves: each leaf hangs on one hub or on
    a pair of hubs, and every hub keeps at least two private leaves."""
    pairs = [(a, b) for a in range(hubs) for b in range(a + 1, hubs)]
    edges = []
    for i in range(leaves):
        v = hubs + i
        if i < 2 * hubs:
            tops = (i % hubs,)
        elif rng.random() < 0.5:
            tops = (rng.randrange(hubs),)
        else:
            tops = rng.choice(pairs)
        edges.extend((t, v) for t in tops)
    perm, edges = _relabel(rng, hubs + leaves, edges)
    return mx.graphs.Graph(hubs + leaves, edges), frozenset(perm[:hubs])


def _c4free_hubs(rng, mx, hubs: int, pendants: int):
    """Hubs with private pendants plus one connector for each of 2*hubs
    distinct hub pairs; two hubs share at most one neighbor, so there is
    no 4-cycle."""
    pairs = [(a, b) for a in range(hubs) for b in range(a + 1, hubs)]
    edges = []
    v = hubs
    for a, b in rng.sample(pairs, 2 * hubs):
        edges.extend(((a, v), (b, v)))
        v += 1
    for i in range(pendants):
        edges.append((i % hubs if i < 2 * hubs else rng.randrange(hubs), v))
        v += 1
    perm, edges = _relabel(rng, v, edges)
    return mx.graphs.Graph(v, edges), frozenset(perm[:hubs])


def large_sparse(rng, mx, w: _Writer, refs: References, scale: float) -> list[Op]:
    """Documents with thousands of vertices through kernel, kernelized
    solve, approx and verify. Three families with optima known by
    construction: two hubs with 3000 twin leaves (standard kernel, solve
    --kernelize at sigma and sigma + 1, dual and m < k refusals), 30-40
    hubs with private pendants and no 4-cycle (c4free and standard
    kernels), and cycle covers on 2000-3000 vertices (dual kernel)."""
    ops = []
    for _ in range(_scaled(SPARSE_DOCS, scale)):
        g, hubs = _hub_twins(rng, mx, 2, 3000)
        doc = to_doc(g)
        sigma = hub_sigma(doc, hubs)
        path = w.graph(g, comment="hub twins")
        col = w.path(os.path.basename(path) + ".col")
        m = len(doc.edges)
        fam = {"family": "hubs", "hubs": hubs, "sigma": sigma}
        ops += [
            Op(["kernel", "--rule", "standard", "--k", str(sigma), "-o", path + ".std", path],
               "kernel", doc, {**fam, "rule": "standard", "k": sigma, "answer": True}, out=path + ".std"),
            Op(["solve", "--kernelize", "--k", str(sigma), path], "solve", doc,
               {**fam, "k": sigma, "answer": True}),
            Op(["solve", "--kernelize", "--k", str(sigma + 1), path], "solve", doc,
               {**fam, "k": sigma + 1, "answer": False}),
            Op(["approx", "-o", col, path], "approx", doc, fam, out=col),
            Op(["verify", path, col], "verify", doc, fam, coloring=col),
            Op(["kernel", "--rule", "dual", "--k", "3", "-o", path + ".dual", path],
               "kernel", doc, {**fam, "rule": "dual", "k": 3, "answer": sigma >= doc.n - 3},
               out=path + ".dual"),
            Op(["kernel", "--rule", "standard", "--k", str(m + 1), "-o", path + ".none", path],
               "kernel", doc, {**fam, "rule": "standard", "k": m + 1, "answer": False},
               out=path + ".none"),
        ]
    for _ in range(_scaled(SPARSE_DOCS, scale)):
        g, hubs = _c4free_hubs(rng, mx, rng.randint(30, 40), 2500)
        doc = to_doc(g)
        sigma = hub_sigma(doc, hubs)
        path = w.graph(g, comment="c4-free hubs")
        col = w.path(os.path.basename(path) + ".col")
        fam = {"family": "hubs", "hubs": hubs, "sigma": sigma, "k": sigma, "answer": True}
        ops += [
            Op(["kernel", "--rule", rule, "--k", str(sigma), "-o", f"{path}.{rule}", path],
               "kernel", doc, {**fam, "rule": rule}, out=f"{path}.{rule}")
            for rule in ("c4free", "standard")
        ]
        ops += [
            Op(["approx", "-o", col, path], "approx", doc, fam, out=col),
            Op(["verify", path, col], "verify", doc, fam, coloring=col),
        ]
    for _ in range(_scaled(SPARSE_DOCS, scale)):
        n = rng.randint(2000, 3000)
        g = mx.generators.gen_two_factor(n, rng.randrange(1 << 31))
        doc = to_doc(g)
        path = w.graph(g)
        col = w.path(os.path.basename(path) + ".col")
        fam = {"family": "cycles", "sigma": n}
        ops += [
            Op(["kernel", "--rule", "dual", "--k", "3", "-o", path + ".dual", path], "kernel", doc,
               {**fam, "rule": "dual", "k": 3, "answer": True}, out=path + ".dual"),
            Op(["solve", "--k", str(n), path], "solve", doc, {**fam, "k": n, "answer": True}),
            Op(["approx", "-o", col, path], "approx", doc, fam, out=col),
            Op(["verify", path, col], "verify", doc, fam, coloring=col),
        ]
    return ops


def _rainbow(w: _Writer, path: str, doc: Doc) -> str:
    """One color per edge: overflows at every vertex of degree 3 or more."""
    lines = [f"s coloring {len(doc.edges)}"]
    lines += [f"l {u + 1} {v + 1} {i + 1}" for i, (u, v) in enumerate(doc.edges)]
    col = path + ".rainbow"
    with open(col, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return col


def _gadget(rng, mx):
    """A class-partitioned independent-set instance whose gadget graph has
    17-43 vertices."""
    while True:
        k = rng.randint(2, 3)
        n0 = rng.randint(k, 6)
        pairs = [(a, b) for a in range(n0) for b in range(a + 1, n0)]
        m0 = rng.randint(1, min(7, len(pairs)))
        if 17 <= n0 + k + 1 + 5 * m0 <= 43:
            break
    base = mx.graphs.Graph(n0, rng.sample(pairs, m0))
    order = list(range(n0))
    rng.shuffle(order)
    parts = tuple(tuple(order[i::k]) for i in range(k))
    return mx.generators.MCISInstance(base, parts)


def sigma_oracle(rng, mx, w: _Writer, refs: References, scale: float) -> list[Op]:
    """``sigma --edge-limit 0`` on random graphs with 8-9 vertices and
    exactly m edges, an equal number per (m, n) cell for m = 10..20, plus
    capacity-annotated gadgets; every fourth random graph also gets a
    ``verify`` of a one-color-per-edge coloring, the workload's negative
    answers."""
    ops = []
    per_cell = _scaled(ORACLE_PER_CELL, scale)
    drawn = 0
    for m in range(10, 21):
        for n in (8, 9):
            p = m / (n * (n - 1) / 2)
            for _ in range(per_cell):
                g = mx.generators.gen_random(n, p, rng.randrange(1 << 31))
                while g.m != m:
                    g = mx.generators.gen_random(n, p, rng.randrange(1 << 31))
                doc = to_doc(g)
                sigma = _oracle_sigma(mx, refs, doc)
                path = w.graph(g)
                ops.append(Op(["sigma", "--edge-limit", "0", path], "sigma", doc,
                              {"sigma": sigma}))
                drawn += 1
                if drawn % ORACLE_VERIFY_EVERY == 0:
                    col = _rainbow(w, path, doc)
                    ops.append(Op(["verify", path, col], "verify", doc, coloring=col))
    for _ in range(_scaled(ORACLE_GADGETS, scale)):
        inst = _gadget(rng, mx)
        ann = mx.generators.reduce_mcis(inst)
        doc = to_doc(ann.graph, ann.f)
        sigma = _oracle_sigma(mx, refs, doc)
        key = ("mcis", inst.graph.n, inst.graph.edges, inst.parts)
        yes = refs.get(key, lambda: mx.generators.has_multicolored_independent_set(inst))
        path = w.graph(ann.graph, ann.f, comment=f"threshold {ann.threshold}")
        # the gadget reduction says sigma reaches the threshold exactly when
        # the independent-set instance is a yes; if the two references
        # disagree the operation cannot be judged and fails
        ok = (sigma >= ann.threshold) == yes
        ops.append(Op(["sigma", "--edge-limit", "0", path], "sigma", doc,
                      {"sigma": sigma if ok else None}))
    return ops


WORKLOADS = {
    "solve-fpt": solve_fpt,
    "large-sparse": large_sparse,
    "sigma-oracle": sigma_oracle,
}


def build(name: str, seed: int, mx: SimpleNamespace, workdir: str,
          refs: References, scale: float = 1.0) -> list[Op]:
    rng = random.Random(f"{name}/{seed}")
    return WORKLOADS[name](rng, mx, _Writer(mx, workdir), refs, scale)

