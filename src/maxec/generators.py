"""Instance construction: reductions and seeded generators.

Two reductions connect the capacity-annotated problem to its relatives.
``reduce_mcis`` encodes a class-partitioned independent-set question as a
capacity-annotated coloring question on a gadget graph, turning k classes
into a color target of k + 1. ``pendant_transform`` removes the capacity
annotation: every capacity-1 vertex gains a pendant neighbor, and the
color target grows by the number of pendants added.

The generators produce seeded, reproducible test instances: random graphs
with independent edge draws, and random disjoint unions of cycles (graphs
whose maximum color count equals their vertex count).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .formats import FormatError, _read_graph
from .graphs import Graph, ValidityProfile
from .kernels import has_c4


@dataclass(frozen=True)
class MCISInstance:
    """A graph whose vertices are partitioned into labeled classes.

    Question: can one vertex be chosen from every class so that the
    chosen vertices are pairwise nonadjacent? Classes are nonempty,
    disjoint, and cover the vertex set, so there is at least one class.
    """

    graph: Graph
    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "parts", tuple(tuple(sorted(part)) for part in self.parts)
        )
        if not self.parts:
            raise ValueError("instance needs at least one class")
        seen: set[int] = set()
        for part in self.parts:
            if not part:
                raise ValueError("classes must be nonempty")
            for v in part:
                if not 0 <= v < self.graph.n:
                    raise ValueError(f"class member {v} out of range")
                if v in seen:
                    raise ValueError(f"vertex {v} appears in two classes")
                seen.add(v)
        if len(seen) != self.graph.n:
            missing = min(set(range(self.graph.n)) - seen)
            raise ValueError(f"vertex {missing} belongs to no class")

    @property
    def k(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class AnnotatedInstance:
    """A graph with per-vertex capacities in {1, 2} and a color target."""

    graph: Graph
    f: tuple[int, ...]
    threshold: int

    def __post_init__(self):
        object.__setattr__(self, "f", tuple(self.f))
        if len(self.f) != self.graph.n:
            raise ValueError("capacity table has wrong length")
        if any(cap not in (1, 2) for cap in self.f):
            raise ValueError("capacities must be 1 or 2")
        if self.threshold < 0:
            raise ValueError("threshold must be nonnegative")

    @property
    def profile(self) -> ValidityProfile:
        return ValidityProfile(f=self.f)


def reduce_mcis(inst: MCISInstance) -> AnnotatedInstance:
    """Encode class-partitioned independent set as annotated coloring.

    The output graph keeps the original vertex ids, then appends one gate
    vertex per class (adjacent to every member of its class), one apex
    vertex (adjacent to every gate), and five vertices per original edge
    (u, v), wired as a path u, e_u, e_u2, e_3, e_v2, e_v, v whose middle
    vertex e_3 is also adjacent to the apex. Gates and the middle gadget
    vertices get capacity 2; every other vertex gets capacity 1. The
    color target is the class count plus one.

    The apex pins all gate-apex and apex-gadget edges to one shared
    color, so each gate can contribute at most one further color, realized
    on its class edges. Capacity 1 chains an endpoint's color down its
    gadget arm to the middle vertex, which tolerates the shared color plus
    at most one more; two adjacent chosen vertices with distinct gate
    colors would overflow it. The output never contains a 4-cycle.
    """
    g = inst.graph
    n, k = g.n, inst.k
    apex = n + k
    edges: list[tuple[int, int]] = []
    for i, part in enumerate(inst.parts):
        edges.extend((v, n + i) for v in part)
    edges.extend((n + i, apex) for i in range(k))
    roomy = set(range(n, n + k))
    for eid, (u, v) in enumerate(g.edges):
        base = apex + 1 + 5 * eid
        eu, eu2, e3, ev2, ev = range(base, base + 5)
        edges.extend(
            [(u, eu), (apex, e3), (v, ev), (eu, eu2), (eu2, e3), (e3, ev2), (ev2, ev)]
        )
        roomy.add(e3)
    total = apex + 1 + 5 * g.m
    out = Graph(total, edges)
    if has_c4(out) is not None:
        raise AssertionError("gadget graph contains a 4-cycle")
    f = tuple(2 if v in roomy else 1 for v in range(total))
    return AnnotatedInstance(out, f, k + 1)


def pendant_transform(inst: AnnotatedInstance) -> tuple[Graph, int]:
    """Trade capacity annotations for pendant neighbors.

    Every capacity-1 vertex gains a fresh degree-1 neighbor; pendants are
    appended after the existing vertices in owner order. Each pendant edge
    always affords one private color, and spending a palette slot on it
    pins its owner to one color on the core edges, so the maximum color
    count shifts by exactly the number of pendants added. The returned
    target is the instance threshold plus that count.
    """
    g = inst.graph
    owners = [v for v in range(g.n) if inst.f[v] == 1]
    edges = list(g.edges)
    edges.extend((owner, g.n + i) for i, owner in enumerate(owners))
    return Graph(g.n + len(owners), edges), inst.threshold + len(owners)


def gen_random(n: int, p: float, seed: int) -> Graph:
    """Seeded random graph: each vertex pair is an edge with probability p.

    Pairs are drawn in lexicographic order from ``random.Random(seed)``,
    so equal arguments always reproduce the same graph.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def gen_two_factor(n: int, seed: int) -> Graph:
    """Seeded disjoint union of cycles covering n vertices.

    Cycle lengths are drawn from ``random.Random(seed)``, each at least 3.
    Every vertex ends up with degree exactly 2, so the maximum color count
    of the output equals n.
    """
    if n < 3:
        raise ValueError("a cycle cover needs at least 3 vertices")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    lengths: list[int] = []
    rem = n
    while rem:
        # a remainder of 1 or 2 could not host another cycle
        length = rng.choice([c for c in range(3, rem + 1) if rem - c not in (1, 2)])
        lengths.append(length)
        rem -= length
    edges: list[tuple[int, int]] = []
    base = 0
    for length in lengths:
        cyc = order[base : base + length]
        edges.extend((cyc[i], cyc[(i + 1) % length]) for i in range(length))
        base += length
    return Graph(n, edges)


def has_multicolored_independent_set(inst: MCISInstance) -> bool:
    """Brute force: try every way to choose one vertex per class."""
    g = inst.graph
    for combo in itertools.product(*inst.parts):
        if all(
            not g.has_edge(a, b) for a, b in itertools.combinations(combo, 2)
        ):
            return True
    return False


def render_mcis(inst: MCISInstance, comments=()) -> str:
    """Serialize an instance: problem line, class lines, edge lines."""
    g = inst.graph
    lines = [f"c {text}" for text in comments]
    lines.append(f"p mcis {g.n} {g.m} {inst.k}")
    labels: dict[int, int] = {}
    for i, part in enumerate(inst.parts):
        for v in part:
            labels[v] = i
    lines.extend(f"v {v + 1} {labels[v] + 1}" for v in range(g.n))
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def load_mcis(text: str) -> MCISInstance:
    """Parse an instance document.

    Expected lines: one ``p mcis <n> <m> <k>`` problem line, one
    ``v <vertex> <class>`` line per vertex, and ``e <u> <v>`` edge lines,
    all 1-based. Comment lines have ``c`` as their first field.
    """
    g, (n, _, k), labels = _read_graph(
        text, "mcis", 3, "v", "class", lambda counts: counts[2]
    )
    if len(labels) != n:
        missing = sorted(set(range(n)) - set(labels))[0]
        raise FormatError(None, f"missing class line for vertex {missing + 1}")
    parts = tuple(
        tuple(v for v in range(n) if labels[v] == i + 1) for i in range(k)
    )
    try:
        return MCISInstance(g, parts)
    except ValueError as exc:
        raise FormatError(None, str(exc)) from exc
