"""Bench-side correctness checks, independent of the program under test.

Everything here reads the program's output text with its own small parsers
and checks it against reference facts fixed at set-up time: a 2-validity
checker that honours per-vertex capacities, the kernel certificates, and
the verdict rules. Nothing in this module imports ``maxec``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

POSITIVE = ("YES", "sigma", "REDUCED", "APPROX", "VALID")
NEGATIVE = ("NO", "INVALID")

_FIRST = (
    ("YES", re.compile(r"YES k=(\d+)")),
    ("NO", re.compile(r"NO")),
    ("sigma", re.compile(r"sigma=(\d+)")),
    ("REDUCED", re.compile(r"REDUCED n=(\d+) m=(\d+) k=(\d+)")),
    ("APPROX", re.compile(r"APPROX k=(\d+)")),
    ("VALID", re.compile(r"VALID colors=(\d+)")),
    ("INVALID", re.compile(r"INVALID")),
)


class Wrong(Exception):
    """The program's output contradicts the reference: a wrong verdict or a
    bad witness."""


@dataclass(frozen=True)
class Doc:
    """A graph as the bench knows it: 0-based edges and optional capacities."""

    n: int
    edges: tuple[tuple[int, int], ...]
    caps: tuple[int, ...] | None = None

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


@dataclass
class Op:
    """One CLI call plus everything needed to judge its output.

    ``kind`` is the subcommand. ``doc`` is the input graph. ``ref`` holds
    the reference facts: ``k`` (requested target), ``sigma`` (the exact
    optimum), ``answer`` (the threshold answer the verdict must match) and,
    for kernels, ``family`` and ``hubs`` for the reduced-graph certificate.
    ``out`` is the file written with ``-o``; ``coloring`` the file
    ``verify`` reads.
    """

    argv: list[str]
    kind: str
    doc: Doc
    ref: dict = field(default_factory=dict)
    out: str | None = None
    coloring: str | None = None


def first_line(stdout: str) -> tuple[str, tuple[int, ...]]:
    line = stdout.split("\n", 1)[0].strip()
    for name, pattern in _FIRST:
        hit = pattern.fullmatch(line)
        if hit:
            return name, tuple(int(x) for x in hit.groups())
    raise Wrong(f"unrecognized first line {line!r}")


def expected_exit(verdict: str) -> int:
    return 1 if verdict in NEGATIVE else 0


def parse_graph(text: str) -> Doc:
    n = None
    edges = []
    caps = {}
    for raw in text.splitlines():
        fields = raw.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "p" and len(fields) == 4 and fields[1] == "edge":
            n = int(fields[2])
        elif fields[0] == "e" and len(fields) == 3 and n is not None:
            edges.append((int(fields[1]) - 1, int(fields[2]) - 1))
        elif fields[0] == "f" and len(fields) == 3 and n is not None:
            caps[int(fields[1]) - 1] = int(fields[2])
        else:
            raise Wrong(f"bad graph line {raw!r}")
    if n is None:
        raise Wrong("graph document without problem line")
    cap_tuple = tuple(caps[v] for v in range(n)) if caps else None
    return Doc(n, tuple(edges), cap_tuple)


def parse_coloring(text: str, doc: Doc) -> tuple[int, list[int]]:
    """Declared color count and per-edge colors (1-based), edge order of doc."""
    index = {}
    for eid, (u, v) in enumerate(doc.edges):
        index[(min(u, v), max(u, v))] = eid
    k = None
    colors = [0] * len(doc.edges)
    for raw in text.splitlines():
        fields = raw.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "s" and len(fields) == 3 and fields[1] == "coloring" and k is None:
            k = int(fields[2])
        elif fields[0] == "l" and len(fields) == 4 and k is not None:
            u, v, c = int(fields[1]) - 1, int(fields[2]) - 1, int(fields[3])
            eid = index.get((min(u, v), max(u, v)))
            if eid is None:
                raise Wrong(f"witness colors a non-edge {raw!r}")
            if colors[eid]:
                raise Wrong(f"witness colors edge {raw!r} twice")
            colors[eid] = c
        else:
            raise Wrong(f"bad witness line {raw!r}")
    if k is None:
        raise Wrong("witness without solution line")
    if not all(colors):
        raise Wrong("witness leaves edges uncolored")
    return k, colors


def overflows(doc: Doc, colors: list[int]) -> list[int]:
    """Vertices whose palette exceeds capacity (2 unless annotated)."""
    seen = [set() for _ in range(doc.n)]
    for (u, v), c in zip(doc.edges, colors):
        seen[u].add(c)
        seen[v].add(c)
    caps = doc.caps or (2,) * doc.n
    return [v for v in range(doc.n) if len(seen[v]) > caps[v]]


def check_witness(doc: Doc, text: str, k: int) -> None:
    """A valid coloring of doc that uses exactly colors 1..k."""
    declared, colors = parse_coloring(text, doc)
    if declared != k:
        raise Wrong(f"witness declares {declared} colors, expected {k}")
    if set(colors) != set(range(1, k + 1)):
        raise Wrong(f"witness does not use exactly the colors 1..{k}")
    bad = overflows(doc, colors)
    if bad:
        raise Wrong(f"witness overflows at vertices {bad[:5]}")


def hub_sigma(doc: Doc, hubs) -> int:
    """Exact optimum of a graph whose ``hubs`` form an independent vertex
    cover and whose other vertices have degree at most 2.

    Every color shows at some hub, so at most sum(min(deg, 2)) colors; each
    hub can split its edges into two private colors, and a non-hub sees at
    most two of them, so the bound is reached.
    """
    hubs = set(hubs)
    deg = doc.degrees()
    for u, v in doc.edges:
        if (u in hubs) == (v in hubs):
            raise Wrong("hub certificate broken: an edge misses the hub set")
    if any(deg[v] > 2 for v in range(doc.n) if v not in hubs):
        raise Wrong("hub certificate broken: a non-hub has degree above 2")
    return sum(min(deg[h], 2) for h in hubs)


def _reduced(op: Op, read) -> tuple[Doc, list[int]]:
    red = parse_graph(read(op.out))
    vmap = []
    for raw in read(op.out + ".lift").splitlines():
        fields = raw.split()
        if fields and fields[0] == "m":
            if int(fields[1]) != len(vmap) + 1:
                raise Wrong("lifting sidecar lists the vertex map out of order")
            vmap.append(int(fields[2]) - 1)
    if len(vmap) != red.n:
        raise Wrong("lifting sidecar does not map every reduced vertex")
    return red, vmap


def _check_reduced(op: Op, numbers, read) -> None:
    n, m, k = numbers
    if k != op.ref["k"]:
        raise Wrong(f"kernel changed the parameter to {k}")
    red, vmap = _reduced(op, read)
    if (red.n, len(red.edges)) != (n, m):
        raise Wrong("reduced document does not match the REDUCED line")
    if op.ref["family"] == "cycles":
        # a 2-regular graph reaches sigma = n', so sigma' >= n' - k holds,
        # as it does for the original cycle cover
        if any(d != 2 for d in red.degrees()):
            raise Wrong("dual kernel of a cycle cover is not 2-regular")
        return
    original = {(min(u, v), max(u, v)) for u, v in op.doc.edges}
    kept = set(vmap)
    induced = {(u, v) for u, v in original if u in kept and v in kept}
    mapped = {
        (min(vmap[u], vmap[v]), max(vmap[u], vmap[v])) for u, v in red.edges
    }
    if mapped != induced:
        raise Wrong("reduced graph is not the induced subgraph on the kept vertices")
    hubs = op.ref["hubs"]
    red_hubs = [i for i, v in enumerate(vmap) if v in hubs]
    # the dual rules keep the deficit: their question is sigma >= n - k
    target = red.n - k if op.ref["rule"] == "dual" else k
    if (hub_sigma(red, red_hubs) >= target) != op.ref["answer"]:
        raise Wrong("kernel changed the answer to the threshold question")


def judge(op: Op, stdout: str, read) -> str:
    """Verdict name when the output is right; raises Wrong otherwise.

    ``read(path)`` returns a file the op wrote. The exit code is checked
    by the caller against ``expected_exit`` of the returned verdict.
    """
    try:
        return _verdict(op, stdout, read)
    except (ValueError, IndexError) as exc:
        raise Wrong(f"malformed output: {exc}") from exc


def _verdict(op: Op, stdout: str, read) -> str:
    verdict, numbers = first_line(stdout)
    ref = op.ref
    body = stdout.split("\n", 1)[1] if "\n" in stdout else ""
    if op.kind == "solve" and verdict == "YES":
        if numbers[0] != ref["k"] or not ref["answer"]:
            raise Wrong(f"YES k={numbers[0]} but the reference says no")
        check_witness(op.doc, body, ref["k"])
    elif op.kind in ("solve", "kernel") and verdict == "NO":
        if ref["answer"]:
            raise Wrong("NO but the reference says yes")
    elif op.kind == "kernel" and verdict == "YES":
        if numbers[0] != ref["k"] or not ref["answer"]:
            raise Wrong("kernel says YES but the reference says no")
    elif op.kind == "kernel" and verdict == "REDUCED":
        _check_reduced(op, numbers, read)
    elif op.kind == "sigma" and verdict == "sigma":
        if numbers[0] != ref["sigma"]:
            raise Wrong(f"sigma={numbers[0]}, reference {ref['sigma']}")
        check_witness(op.doc, body, numbers[0])
    elif op.kind == "approx" and verdict == "APPROX":
        if not 1 <= numbers[0] <= ref["sigma"]:
            raise Wrong(f"APPROX k={numbers[0]} exceeds the optimum {ref['sigma']}")
        check_witness(op.doc, read(op.out), numbers[0])
    elif op.kind == "verify" and verdict in ("VALID", "INVALID"):
        _, colors = parse_coloring(read(op.coloring), op.doc)
        bad = overflows(op.doc, colors)
        if verdict == "VALID" and (bad or numbers[0] != len(set(colors))):
            raise Wrong("VALID for a coloring the bench rejects")
        if verdict == "INVALID":
            want = "violations: " + " ".join(str(v + 1) for v in bad)
            if not bad or body.split("\n", 1)[0].strip() != want:
                raise Wrong("INVALID with the wrong violation list")
    else:
        raise Wrong(f"{verdict} is not an answer to {op.kind}")
    return verdict
