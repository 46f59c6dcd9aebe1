"""Independent brute-force helpers used to validate the library.

Everything here is deliberately naive and shares no code with the package
internals: a pruning-free enumerator for the maximum color count, an
orbit-marking enumeration of isomorphism-distinct graphs, an all-subsets
minimum vertex cover, the recursive bipartite matching the package used
to have, and a restart-from-the-smallest-vertex run of the dual kernel's
contractions.
The one exception is ``ref_palette_search``, which feeds the reference palette
enumeration into the solver's own per-palette decision (``_settle``), so
that a test can compare the memoized enumeration alone against it;
``ref_palette_feasible`` checks that decision on its own, and
``ref_coverable`` checks that every enumerated palette leaves each color
somewhere to show. ``palette_route`` reaches the palette search through
``solve_exact`` itself, with ``stalled_decide`` in place of the oracle's
decider.
The reference loaders (``ref_load_instance``, ``ref_load_coloring``) and
``ref_has_c4`` are the package's earlier per-line parsers and unfiltered
four-cycle scan, kept to pin the faster versions to the same answers.
"""

from __future__ import annotations

from itertools import combinations, permutations

from maxec import EdgeColoring, Graph, GraphError, SolveResult, SolveStats, solver
from maxec.formats import FormatError
from maxec.solver import _settle, _Tables


def dumb_sigma(g: Graph, caps=None) -> int:
    """Maximum colors over all valid colorings, by plain enumeration.

    Walks every restricted-growth assignment of classes to edges in input
    order, rejecting a class the moment a vertex palette would exceed its
    capacity. No ordering tricks, no bounds, no decomposition.
    """
    if caps is None:
        caps = [2] * g.n
    m = g.m
    best = 0
    pal = [set() for _ in range(g.n)]

    def rec(i: int, classes: int) -> None:
        nonlocal best
        if i == m:
            if classes > best:
                best = classes
            return
        u, v = g.edges[i]
        for a in range(classes + 1):
            if (a in pal[u] or len(pal[u]) < caps[u]) and (
                a in pal[v] or len(pal[v]) < caps[v]
            ):
                new_u = a not in pal[u]
                new_v = a not in pal[v]
                if new_u:
                    pal[u].add(a)
                if new_v:
                    pal[v].add(a)
                rec(i + 1, classes + 1 if a == classes else classes)
                if new_u:
                    pal[u].remove(a)
                if new_v:
                    pal[v].remove(a)

    rec(0, 0)
    return best


def graphs(n: int) -> list[Graph]:
    """One representative per isomorphism class of graphs on exactly ``n``
    vertices, isolated vertices included.

    Edge sets are bitmasks over vertex pairs; ascending scan marks every
    permutation image of each fresh mask, so exactly the lexicographically
    smallest member of each orbit is kept.
    """
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    tables = []
    for perm in permutations(range(n)):
        tables.append(
            [index[tuple(sorted((perm[u], perm[v])))] for (u, v) in pairs]
        )
    seen = bytearray(1 << len(pairs))
    out = []
    for mask in range(1 << len(pairs)):
        if seen[mask]:
            continue
        for table in tables:
            image = 0
            rest = mask
            while rest:
                low = rest & -rest
                image |= 1 << table[low.bit_length() - 1]
                rest ^= low
            seen[image] = 1
        out.append(Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1]))
    return out


def connected_graphs(n: int) -> list[Graph]:
    """The connected members of ``graphs(n)``, each vertex of positive
    degree (n = 1 excepted)."""
    if n == 1:
        return [Graph(1, [])]
    return [
        g for g in graphs(n)
        if all(g.degree(v) > 0 for v in range(n))
        and len(g.connected_components()) == 1
    ]


def graphs_upto_seven() -> list[Graph]:
    """Every graph on 0 through 7 vertices up to isomorphism, some more
    than once: the 7-vertex ones as each 6-vertex class plus a vertex
    joined to every subset of it (deleting any vertex of a 7-vertex graph
    leaves a graph isomorphic to one of those classes)."""
    out = []
    for n in range(7):
        out.extend(graphs(n))
    for g in graphs(6):
        for nbrs in range(1 << 6):
            out.append(Graph(7, list(g.edges) + [
                (v, 6) for v in range(6) if nbrs >> v & 1
            ]))
    return out


def brute_min_cover(g: Graph) -> int:
    """Size of a minimum vertex cover, trying every vertex subset in order
    of size."""
    for size in range(g.n + 1):
        for subset in combinations(range(g.n), size):
            if all(u in subset or v in subset for u, v in g.edges):
                return size
    raise AssertionError("the whole vertex set is a cover")


def connected_graphs_upto(n: int) -> list[Graph]:
    """Isomorphism-distinct connected graphs on 1 through ``n`` vertices."""
    out = []
    for size in range(1, n + 1):
        out.extend(connected_graphs(size))
    return out


def ref_kernelize_dual(g: Graph):
    """The dual kernel's degree-2 contractions as a plain fixpoint loop.

    Each round scans the live vertices in ascending order for the first
    degree-2 vertex u with a degree-2 neighbor v (smallest first) whose
    other neighbor v' is not adjacent to u, deletes v, bridges (u, v'),
    and starts the scan over. Returns the reduced graph on the surviving
    vertices renumbered in order, with its edges sorted, the map from new
    ids to old ones, and the actions ``("contract", v, u, v')`` in order.
    """
    alive = set(range(g.n))
    nbrs = {v: set(g.neighbors(v)) for v in range(g.n)}
    actions = []

    def first_pair():
        for u in sorted(alive):
            if len(nbrs[u]) != 2:
                continue
            for v in sorted(nbrs[u]):
                if len(nbrs[v]) != 2:
                    continue
                (vp,) = nbrs[v] - {u}
                if vp not in nbrs[u]:
                    return u, v, vp
        return None

    while (hit := first_pair()) is not None:
        u, v, vp = hit
        nbrs[u] = nbrs[u] - {v} | {vp}
        nbrs[vp] = nbrs[vp] - {v} | {u}
        del nbrs[v]
        alive.remove(v)
        actions.append(("contract", v, u, vp))
    keep = sorted(alive)
    index = {v: i for i, v in enumerate(keep)}
    edges = sorted((index[v], index[w]) for v in keep for w in nbrs[v] if v < w)
    return Graph(len(keep), edges), tuple(keep), tuple(actions)


def all_capacity_maps(n: int):
    """Every capacity map on ``n`` vertices with values in {1, 2}."""
    for bits in range(1 << n):
        yield tuple(2 if bits >> v & 1 else 1 for v in range(n))


def ref_enum_tau_masks(g: Graph, order: tuple[int, ...], k: int,
                       realizable: bool = True):
    """Reference palette enumeration: the solver's canonical-order search as
    a plain recursive loop, recomputing every option list and candidate
    check at each node, with ``ref_realizable`` tested only on whole
    palettes. The solver's memoized enumerator must yield the same tuples
    in the same order. ``realizable=False`` skips that test, which leaves
    palettes some cover vertex cannot show."""
    if k < 1:
        return
    index = {v: i for i, v in enumerate(order)}
    earlier = []
    for i, v in enumerate(order):
        earlier.append(
            tuple(index[w] for _, w in g.adj[v] if w in index and index[w] < i)
        )
    in_cover = set(order)
    ready_at = [[] for _ in range(len(order))]
    for u in range(g.n):
        if u in in_cover or g.degree(u) == 0:
            continue
        last = max(index[w] for _, w in g.adj[u])
        ready_at[last].append(u)
    sets = [0] * len(order)

    def has_candidate(u: int) -> bool:
        masks = [sets[index[w]] for _, w in g.adj[u]]
        return bool(ref_candidates(masks))

    def options(t: int, pending):
        out = []

        def admit(y: int, t2: int, adds_pair: bool):
            kept = []
            for i, j in pending:
                has_i = y >> i & 1
                has_j = y >> j & 1
                if has_i != has_j:
                    if has_j:
                        return
                else:
                    kept.append((i, j))
            if adds_pair:
                kept.append((t, t + 1))
            out.append((y, t2, tuple(kept)))

        for a in range(t):
            admit(1 << a, t, False)
        for a in range(t):
            for b in range(a + 1, t):
                admit(1 << a | 1 << b, t, False)
        if t < k:
            admit(1 << t, t + 1, False)
            for a in range(t):
                admit(1 << a | 1 << t, t + 1, False)
        if t + 1 < k:
            admit(1 << t | 1 << (t + 1), t + 2, True)
        return out

    def rec(p: int, t: int, pending):
        if p == len(order):
            if t == k and (not realizable or ref_realizable(
                    g, order, dict(zip(order, sets)), k)):
                yield tuple(sets)
            return
        if t + 2 * (len(order) - p) < k:
            return
        for y, t2, pending2 in options(t, pending):
            if any(sets[q] & y == 0 for q in earlier[p]):
                continue
            sets[p] = y
            if all(has_candidate(u) for u in ready_at[p]):
                yield from rec(p + 1, t2, pending2)
            sets[p] = 0

    yield from rec(0, 0, ())


def ref_candidates(masks) -> list[int]:
    """Candidate color sets of a cut vertex from its neighbor palettes:
    every color common to all of them, and every pair of colors met by all
    of them when there are at least two, in ascending mask order."""
    cols = [c for c in range(max(masks).bit_length()) if any(m >> c & 1 for m in masks)]
    out = [1 << c for c in cols if all(m >> c & 1 for m in masks)]
    if len(masks) >= 2:
        out += [
            1 << a | 1 << b
            for a, b in combinations(cols, 2)
            if all(m & (1 << a | 1 << b) for m in masks)
        ]
    return sorted(out)


def ref_realizable(g: Graph, order, tau: dict[int, int], k: int) -> bool:
    """Whether every cover vertex in ``order`` can show its whole palette
    ``tau[v]``: its colors go to distinct neighbors, each color to one that
    offers it. A cover neighbor offers its palette, a cut neighbor every
    color of its ``ref_candidates``. Tried over every ordered choice of
    neighbors, one per color."""
    in_cover = set(order)
    for v in order:
        offers = []
        for _, w in g.adj[v]:
            if w in in_cover:
                offers.append(tau[w])
            else:
                cands = ref_candidates([tau[x] for _, x in g.adj[w]])
                offer = 0
                for y in cands:
                    offer |= y
                offers.append(offer)
        colors = [c for c in range(k) if tau[v] >> c & 1]
        if not any(
            all(offer >> c & 1 for c, offer in zip(colors, chosen))
            for chosen in permutations(offers, len(colors))
        ):
            return False
    return True


def ref_coverable(g: Graph, cover, tau: dict[int, int], k: int) -> bool:
    """Whether every one of the k colors can appear on some edge: allowed
    on a cover edge (a color of both end palettes) or listed in a candidate
    of a cut vertex. False as soon as some cut vertex has no candidate. A
    palette failing this never yields a witness, whatever the colors used
    inside the cover."""
    in_cover = set(cover)
    shown = 0
    for u, v in g.edges:
        if u in in_cover and v in in_cover:
            shown |= tau[u] & tau[v]
    for u in range(g.n):
        if u in in_cover or g.degree(u) == 0:
            continue
        cands = ref_candidates([tau[w] for _, w in g.adj[u]])
        if not cands:
            return False
        for y in cands:
            shown |= y
    return shown == (1 << k) - 1


def ref_palette_feasible(g: Graph, cover, tau: dict[int, int], k: int) -> bool:
    """Whether one palette assignment has a witness, by a set-union DP:
    every union of one allowed color per cover edge (a color of both end
    palettes) and one ``ref_candidates`` set per cut vertex is collected,
    and the palette is feasible when one of them holds all k colors."""
    in_cover = set(cover)
    choices = [
        [1 << c for c in range(k) if (tau[u] & tau[v]) >> c & 1]
        for u, v in g.edges if u in in_cover and v in in_cover
    ]
    for u in range(g.n):
        if u not in in_cover and g.degree(u) > 0:
            choices.append(ref_candidates([tau[w] for _, w in g.adj[u]]))
    unions = {0}
    for options in choices:
        unions = {s | y for s in unions for y in options}
    return (1 << k) - 1 in unions


def ref_palette_search(g: Graph, cover: tuple[int, ...], k: int):
    """The palette search with the loop reference enumeration: every
    palette of ``ref_enum_tau_masks`` goes to the solver's ``_settle`` in
    turn. Returns (per-edge colors or None, stats)."""
    stats = SolveStats()
    tables = _Tables(g, cover)
    for tau in ref_enum_tau_masks(g, cover, k):
        stats.palettes += 1
        colors = _settle(g, tables, tau, k, stats)
        if colors is not None:
            return colors, stats
    return None, stats


def stalled_decide(g: Graph, k: int):
    """A decider that never answers: it pauses at every budget. Put in
    place of ``solver.decide``, it leaves ``solve_exact``'s race to the
    palette search."""
    while True:
        yield


def palette_route(g: Graph, k: int) -> SolveResult:
    """``solve_exact`` with the oracle's decider stalled, so the palette
    search answers every question that reaches the race."""
    decide = solver.decide
    solver.decide = stalled_decide
    try:
        return solver.solve_exact(g, k)
    finally:
        solver.decide = decide


def ref_max_bipartite_matching(left, edges) -> dict:
    """The recursive augmenting-path matching that ``solver._saturate``
    must reproduce: ``left`` vertices in their given order, each one's
    right neighbors in the order of ``edges`` ((left, right) pairs), one
    recursive call per step of an augmenting path. Returns {left: right}
    for every matched left vertex and leaves the others out."""
    adj: dict = {a: [] for a in left}
    for a, b in edges:
        adj[a].append(b)
    match_right: dict = {}

    def augment(a, seen) -> bool:
        for b in adj[a]:
            if b in seen:
                continue
            seen.add(b)
            if b not in match_right or augment(match_right[b], seen):
                match_right[b] = a
                return True
        return False

    for a in left:
        augment(a, set())
    return {a: b for b, a in match_right.items()}


def ref_load_instance(text: str) -> tuple[Graph, tuple[int, ...] | None]:
    """The per-line graph loader that ``formats.load_instance`` replaced:
    every ``e`` line is checked on its own line (``_ref_edge``) before
    ``Graph`` sees it, and only ``c`` followed by a space opens a comment.

    Returns the graph and the per-vertex capacity table (or None when the
    document has no ``f`` lines). When present, the table must be total.
    """
    n = m = None
    edges: list[tuple[int, int]] = []
    edge_lines: set[tuple[int, int]] = set()
    caps: dict[int, int] = {}
    for lineno, line, fields in _ref_lines(text):
        if fields[0] == "p":
            if n is not None:
                raise FormatError(lineno, "duplicate problem line")
            if len(fields) != 4 or fields[1] != "edge":
                raise FormatError(lineno, f"malformed problem line {line!r}")
            n, m = _ref_int(fields[2], lineno), _ref_int(fields[3], lineno)
            if n < 0 or m < 0:
                raise FormatError(lineno, "negative counts in problem line")
        elif fields[0] == "e":
            edges.append(_ref_edge(lineno, line, fields, n, edge_lines))
        elif fields[0] == "f":
            if n is None:
                raise FormatError(lineno, "capacity line before problem line")
            if len(fields) != 3:
                raise FormatError(lineno, f"malformed capacity line {line!r}")
            v, cap = _ref_int(fields[1], lineno), _ref_int(fields[2], lineno)
            if not 1 <= v <= n:
                raise FormatError(lineno, f"vertex id out of range in {line!r}")
            if cap not in (1, 2):
                raise FormatError(lineno, "capacity must be 1 or 2")
            if v - 1 in caps:
                raise FormatError(lineno, f"duplicate capacity for vertex {v}")
            caps[v - 1] = cap
        else:
            raise FormatError(lineno, f"unrecognized line {line!r}")
    if n is None:
        raise FormatError(None, "missing problem line")
    if len(edges) != m:
        raise FormatError(None, f"problem line declares {m} edges, found {len(edges)}")
    try:
        g = Graph(n, edges)
    except GraphError as exc:
        raise FormatError(None, str(exc)) from exc
    if not caps:
        return g, None
    if len(caps) != n:
        missing = sorted(set(range(n)) - set(caps))[0]
        raise FormatError(None, f"missing capacity for vertex {missing + 1}")
    return g, tuple(caps[v] for v in range(n))


def ref_load_coloring(text: str, g: Graph) -> EdgeColoring:
    """The per-line coloring loader that ``formats.load_coloring`` replaced,
    with its two edge lookups per ``l`` line."""
    k = None
    assigned: dict[int, int] = {}
    for lineno, line, fields in _ref_lines(text):
        if fields[0] == "s":
            if k is not None:
                raise FormatError(lineno, "duplicate solution line")
            if len(fields) != 3 or fields[1] != "coloring":
                raise FormatError(lineno, f"malformed solution line {line!r}")
            k = _ref_int(fields[2], lineno)
            if k < 0:
                raise FormatError(lineno, "negative color count")
        elif fields[0] == "l":
            if k is None:
                raise FormatError(lineno, "label line before solution line")
            if len(fields) != 4:
                raise FormatError(lineno, f"malformed label line {line!r}")
            u, v = _ref_int(fields[1], lineno), _ref_int(fields[2], lineno)
            color = _ref_int(fields[3], lineno)
            if not (1 <= u <= g.n and 1 <= v <= g.n):
                raise FormatError(lineno, f"vertex id out of range in {line!r}")
            if not g.has_edge(u - 1, v - 1):
                raise FormatError(lineno, f"no such edge ({u}, {v})")
            if not 1 <= color <= k:
                raise FormatError(lineno, f"color {color} outside 1..{k}")
            eid = g.edge_id(u - 1, v - 1)
            if eid in assigned:
                raise FormatError(lineno, f"edge ({u}, {v}) colored twice")
            assigned[eid] = color - 1
        else:
            raise FormatError(lineno, f"unrecognized line {line!r}")
    if k is None:
        raise FormatError(None, "missing solution line")
    if len(assigned) != g.m:
        raise FormatError(None, f"{g.m - len(assigned)} edges left uncolored")
    colors = [assigned[eid] for eid in range(g.m)]
    used = set(colors)
    if len(used) != k:
        unused = sorted(set(range(k)) - used)[0]
        raise FormatError(None, f"color {unused + 1} is declared but never used")
    return EdgeColoring(colors)


def _ref_lines(text: str):
    """Yield ``(lineno, line, fields)`` for every line that is neither blank
    nor a comment; ``lineno`` is 1-based and ``line`` is stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        yield lineno, line, line.split()


def _ref_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(lineno, f"expected integer, got {token!r}") from None


def _ref_edge(lineno: int, line: str, fields, n: int | None,
              seen: set[tuple[int, int]]) -> tuple[int, int]:
    """Check an ``e <u> <v>`` line against the declared vertex count n
    (None before the problem line) and the edges in ``seen``, which it
    extends; returns the 0-based endpoints."""
    if n is None:
        raise FormatError(lineno, "edge line before problem line")
    if len(fields) != 3:
        raise FormatError(lineno, f"malformed edge line {line!r}")
    u, v = _ref_int(fields[1], lineno), _ref_int(fields[2], lineno)
    if not (1 <= u <= n and 1 <= v <= n):
        raise FormatError(lineno, f"vertex id out of range in {line!r}")
    if u == v:
        raise FormatError(lineno, f"self-loop at vertex {u}")
    key = (min(u, v), max(u, v))
    if key in seen:
        raise FormatError(lineno, f"duplicate edge ({key[0]}, {key[1]})")
    seen.add(key)
    return u - 1, v - 1


def ref_has_c4(g: Graph):
    """Some 4-cycle ``(a, w1, b, w2)`` in cycle order, or None: the
    unfiltered scan that ``kernels.has_c4`` replaced. It records, per pair
    of neighbors of every vertex, the first middle vertex, degree-1
    neighbors included."""
    seen: dict[tuple[int, int], int] = {}
    for w in range(g.n):
        nbrs = g.neighbors(w)
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                key = (a, b) if a < b else (b, a)
                if key in seen:
                    return (key[0], seen[key], key[1], w)
                seen[key] = w
    return None
