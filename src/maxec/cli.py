"""Command line front end.

Subcommands: solve (exact decision with witness), sigma (exhaustive
maximum), kernel (instance shrinking), verify (check a coloring file),
approx (matching-based lower-bound coloring), gen (instance generators).

Exit codes: 0 yes or success, 1 no or invalid, 2 usage or format error,
3 refusal (oracle edge limit, four-cycle precondition), 4 internal error
(one line on stderr, never a verdict). The first stdout
line of every command is stable: "YES k=<k>", "NO", "sigma=<s>",
"VALID colors=<c>", "INVALID", "REDUCED n=<n> m=<m> k=<k>", or
"APPROX k=<k>". File arguments accept "-" for stdin or stdout.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .formats import (
    FormatError,
    load_coloring,
    load_graph,
    load_instance,
    render_annotated,
    render_coloring,
    render_graph,
)
from .generators import gen_random, gen_two_factor, load_mcis, pendant_transform, reduce_mcis
from .graphs import GraphError, ValidityProfile, verify_coloring
from .kernels import (
    FourCycleError,
    Reduced,
    kernelize_c4free,
    kernelize_dual,
    kernelize_standard,
    lift_coloring,  # unused here since solve_exact lifts; bench/spans.py still wraps it
)
from .matching import ForcedNo, ForcedYes, matching_coloring
from .oracle import DEFAULT_EDGE_LIMIT, OracleLimitError, sigma_exact
from .solver import solve_exact

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3
EXIT_INTERNAL = 4


def main() -> None:
    sys.exit(run())


def run(argv=None) -> int:
    """Parse and execute; returns the exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (OracleLimitError, FourCycleError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (FormatError, GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a bug or a resource limit (say, recursion depth) must not pass for
        # a verdict: exit 1 already means NO or INVALID
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # one tree per process: parse_args leaves the parser as it was, and
    # building nine subcommands takes longer than many whole commands
    parser = argparse.ArgumentParser(
        prog="maxec",
        description="Exact maximum edge 2-coloring tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="decide whether k colors are reachable")
    solve.add_argument("--k", type=int, required=True, help="color target")
    solve.add_argument(
        "--kernelize",
        action="store_true",
        help="accepted and ignored: solve always applies the standard kernel's twin rule",
    )
    solve.add_argument("-o", "--out", help="witness coloring file (default: stdout)")
    solve.add_argument("graph", nargs="?", default="-", help="graph file or - for stdin")
    solve.set_defaults(handler=_cmd_solve)

    sigma = sub.add_parser("sigma", help="exhaustive maximum color count")
    sigma.add_argument(
        "--edge-limit",
        type=int,
        default=DEFAULT_EDGE_LIMIT,
        help="oracle edge cap (0 or below lifts it; default %(default)s)",
    )
    sigma.add_argument("-o", "--out", help="witness coloring file (default: stdout)")
    sigma.add_argument("graph", nargs="?", default="-")
    sigma.set_defaults(handler=_cmd_sigma)

    kernel = sub.add_parser("kernel", help="shrink an instance")
    kernel.add_argument("--rule", choices=("standard", "dual", "c4free"), required=True)
    kernel.add_argument(
        "--k",
        type=int,
        required=True,
        help="color target (standard, c4free) or vertex deficit (dual)",
    )
    kernel.add_argument("-o", "--out", help="reduced graph file (default: stdout)")
    kernel.add_argument(
        "--lifting",
        help="lifting sidecar file (default: <out>.lift when writing to a file)",
    )
    kernel.add_argument("graph", nargs="?", default="-")
    kernel.set_defaults(handler=_cmd_kernel)

    verify = sub.add_parser("verify", help="check a coloring file against a graph")
    verify.add_argument(
        "--q",
        type=int,
        help="uniform palette capacity (default 2; not with annotated graphs)",
    )
    verify.add_argument("graph")
    verify.add_argument("coloring")
    verify.set_defaults(handler=_cmd_verify)

    approx = sub.add_parser(
        "approx",
        help="matching-based coloring: a guaranteed lower bound, not the optimum",
    )
    approx.add_argument("-o", "--out", help="coloring file (default: stdout)")
    approx.add_argument("graph", nargs="?", default="-")
    approx.set_defaults(handler=_cmd_approx)

    gen = sub.add_parser("gen", help="generate instances")
    kinds = gen.add_subparsers(dest="kind", required=True)

    rand = kinds.add_parser("random", help="independent edge draws")
    rand.add_argument("--n", type=int, required=True)
    rand.add_argument("--p", type=float, required=True)
    rand.add_argument("--seed", type=int, required=True)
    rand.add_argument("-o", "--out")
    rand.set_defaults(handler=_cmd_gen_random)

    two = kinds.add_parser("two-factor", help="random disjoint cycle cover")
    two.add_argument("--n", type=int, required=True)
    two.add_argument("--seed", type=int, required=True)
    two.add_argument("-o", "--out")
    two.set_defaults(handler=_cmd_gen_two_factor)

    mcis = kinds.add_parser(
        "mcis", help="gadget reduction from a class-partitioned instance file"
    )
    mcis.add_argument(
        "--plain",
        action="store_true",
        help="apply the pendant transform, emitting a plain graph",
    )
    mcis.add_argument("-o", "--out")
    mcis.add_argument("instance", nargs="?", default="-")
    mcis.set_defaults(handler=_cmd_gen_mcis)

    return parser


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_solve(args) -> int:
    g = load_graph(_read(args.graph))
    res = solve_exact(g, args.k)
    if not res.yes:
        print("NO")
        return EXIT_NO
    print(f"YES k={args.k}")
    _write(args.out, render_coloring(g, res.witness))
    return EXIT_YES


def _cmd_sigma(args) -> int:
    g, f = load_instance(_read(args.graph))
    profile = ValidityProfile(f=f) if f is not None else ValidityProfile()
    limit = args.edge_limit if args.edge_limit > 0 else None
    res = sigma_exact(g, profile, edge_limit=limit)
    print(f"sigma={res.sigma}")
    _write(args.out, render_coloring(g, res.witness))
    return EXIT_YES


def _cmd_kernel(args) -> int:
    g = load_graph(_read(args.graph))
    rules = {
        "standard": kernelize_standard,
        "dual": kernelize_dual,
        "c4free": kernelize_c4free,
    }
    result = rules[args.rule](g, args.k)
    verdict = result.verdict
    if isinstance(verdict, ForcedNo):
        print("NO")
        return EXIT_NO
    if isinstance(verdict, ForcedYes):
        print(f"YES k={args.k}")
        return EXIT_YES
    assert isinstance(verdict, Reduced)
    print(f"REDUCED n={verdict.graph.n} m={verdict.graph.m} k={verdict.k}")
    _write(args.out, render_graph(verdict.graph))
    sidecar = args.lifting
    if sidecar is None and args.out not in (None, "-"):
        sidecar = args.out + ".lift"
    if sidecar is not None:
        _write(sidecar, result.lifting.sidecar(g.n))
    return EXIT_YES


def _cmd_verify(args) -> int:
    g, f = load_instance(_read(args.graph))
    if f is not None:
        if args.q is not None:
            raise ValueError("the graph document already carries capacities; drop --q")
        profile = ValidityProfile(f=f)
    else:
        profile = ValidityProfile(q=args.q if args.q is not None else 2)
    coloring = load_coloring(_read(args.coloring), g)
    res = verify_coloring(g, coloring, profile)
    if res.valid:
        print(f"VALID colors={res.colors_used}")
        return EXIT_YES
    print("INVALID")
    print("violations:", " ".join(str(v + 1) for v in res.violations))
    return EXIT_NO


def _cmd_approx(args) -> int:
    g = load_graph(_read(args.graph))
    coloring = matching_coloring(g)
    print(f"APPROX k={coloring.k}")
    _write(args.out, render_coloring(g, coloring))
    return EXIT_YES


def _cmd_gen_random(args) -> int:
    g = gen_random(args.n, args.p, args.seed)
    _write(args.out, render_graph(g, comments=(f"random n={args.n} p={args.p} seed={args.seed}",)))
    return EXIT_YES


def _cmd_gen_two_factor(args) -> int:
    g = gen_two_factor(args.n, args.seed)
    _write(args.out, render_graph(g, comments=(f"two-factor n={args.n} seed={args.seed}",)))
    return EXIT_YES


def _cmd_gen_mcis(args) -> int:
    inst = load_mcis(_read(args.instance))
    ann = reduce_mcis(inst)
    if args.plain:
        plain, target = pendant_transform(ann)
        _write(args.out, render_graph(plain, comments=(f"threshold {target}",)))
    else:
        _write(
            args.out,
            render_annotated(ann.graph, ann.f, comments=(f"threshold {ann.threshold}",)),
        )
    return EXIT_YES


if __name__ == "__main__":
    main()
