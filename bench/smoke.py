"""Smoke test of the benchmark itself, at a tiny size; run from the checkout
root with ``python3 bench/smoke.py``. Exits 0 when every check passes.

It runs every workload untraced and traced and checks that each metric
named in ``BENCHMARK.json`` is reported; it checks that a corrupted
witness and a flipped verdict each trip the correctness check, that a
wrapped entry point that is gone is reported as missing, and that the
benchmark refuses to run in a directory without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import judge
import run
import spans
from judge import Wrong
from workloads import References, build

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = 0.02


def check(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)
    print(f"ok  {message}")


def metrics_reported() -> None:
    check(sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS),
          "BENCHMARK.json lists exactly the bench's workloads")
    check([m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END),
          "BENCHMARK.json lists exactly the end-to-end metrics")
    check([m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER),
          "BENCHMARK.json lists exactly the per-layer metrics")
    for workload in sorted(run.WORKLOADS):
        for traced in (False, True):
            report = run.measure(workload, 1, 0, traced, scale=TINY, reps=1)
            line = run.result_line(report, traced)
            check(line["correct"] and line["failed"] == 0 and line["attempted"] > 0,
                  f"{workload} trace={int(traced)}: {line['attempted']} operations, none failed")
            spec = SPEC["per_layer" if traced else "end_to_end"]
            check({n: m["unit"] for n, m in line["metrics"].items()}
                  == {m["name"]: m["unit"] for m in spec}
                  and all(isinstance(m["value"], (int, float)) for m in line["metrics"].values()),
                  f"{workload} trace={int(traced)}: every metric present with its unit")
            if not traced:
                check(all(m["value"] > 0 for m in line["metrics"].values()),
                      f"{workload}: every end-to-end metric is above 0")


def _trips(op, stdout) -> bool:
    try:
        judge.judge(op, stdout, run._read)
    except Wrong:
        return True
    return False


def _overflowing(op, body: str) -> str | None:
    """The witness with one edge recolored so a vertex sees three colors
    while every color stays in use, or None if no such edit exists."""
    k, colors = judge.parse_coloring(body, op.doc)
    for eid in range(len(colors)):
        for c in range(1, k + 1):
            edited = colors[:eid] + [c] + colors[eid + 1:]
            if set(edited) == set(colors) and judge.overflows(op.doc, edited):
                lines = [f"s coloring {k}"] + [
                    f"l {a + 1} {b + 1} {col}" for (a, b), col in zip(op.doc.edges, edited)]
                return "\n".join(lines) + "\n"
    return None


def checks_trip() -> None:
    workdir = tempfile.mkdtemp(dir=run.WORK)
    try:
        mx = run.import_maxec()
        ops = build("solve-fpt", 1, mx, workdir, References(), TINY)
        outputs = [run.call(mx.cli.run, op.argv) for op in ops]
        yes = [(op, out) for op, out in zip(ops, outputs) if op.ref["answer"]]
        no = [(op, out) for op, out in zip(ops, outputs) if not op.ref["answer"]]
        op, (_, _, stdout, _) = yes[0]
        check(not _trips(op, stdout), "a correct YES passes the check")
        head, body = stdout.split("\n", 1)
        check(_trips(op, "NO\n"), "a YES flipped to NO trips the check")
        nop, (_, _, nstdout, _) = no[0]
        check(not _trips(nop, nstdout), "a correct NO passes the check")
        check(_trips(nop, f"YES k={nop.ref['k']}\n{body}"),
              "a NO flipped to YES trips the check")
        check(_trips(op, "YES k=x\n") and _trips(op, f"{head}\ns coloring 2\nl 1 1 one\n"),
              "malformed output trips the check")
        lines = body.split("\n")
        first = next(i for i, line in enumerate(lines) if line.startswith("l "))
        lines[first] = lines[first].rsplit(" ", 1)[0] + f" {op.ref['k'] + 1}"
        check(_trips(op, head + "\n" + "\n".join(lines)),
              "a witness with a color outside 1..k trips the check")
        broken = [(o, s.split("\n", 1)[0], b) for o, (_, _, s, _) in yes
                  for b in [_overflowing(o, s.split("\n", 1)[1])] if b]
        check(bool(broken) and all(_trips(o, f"{h}\n{b}") for o, h, b in broken),
              "a witness where one vertex sees three colors trips the check")
        star = judge.Doc(4, ((0, 1), (0, 2), (0, 3)))
        check(_trips(judge.Op(["sigma"], "sigma", star, {"sigma": 3}),
                     "sigma=3\ns coloring 3\nl 1 2 1\nl 1 3 2\nl 1 4 3\n"),
              "a rainbow star witness trips the capacity-2 check")
        capped = judge.Doc(3, ((0, 1), (1, 2)), (2, 1, 2))
        check(_trips(judge.Op(["sigma"], "sigma", capped, {"sigma": 2}),
                     "sigma=2\ns coloring 2\nl 1 2 1\nl 2 3 2\n"),
              "two colors at a capacity-1 vertex trip the check")
        r = run.Run(mx.cli.run, ops[:1], float("inf"), None, [], None)
        r.judge(0, None, 1, stdout)
        check(r.failed == 1 and r.wrong == 0, "YES with exit code 1 counts as a failure")
        r.judge(0, "RecursionError: maximum recursion depth exceeded", -1, "")
        check(r.failed == 2, "an exception counts as a failure")
        error, code, _, _ = run.call(mx.cli.run, ["sigma", "--edge-limit", "1", op.argv[-1]])
        r.judge(0, error, code, "")
        check(code == 3 and r.failed == 3 and r.wrong == 0, "a refusal (exit 3) counts as a failure")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def missing_reported() -> None:
    mx = run.import_maxec()
    del mx.cli.solve_exact
    tracer = spans.Tracer()
    tracer.install(mx, spans.RUN_POINTS)
    tracer.uninstall()
    check(tracer.missing == ["maxec.cli.solve_exact"],
          "a wrapped name that no longer exists is reported as missing")


def refuses_bare_directory() -> None:
    bare = tempfile.mkdtemp(dir=run.WORK)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = SPEC["command"] + ["--workload", "solve-fpt", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "without the program's sources the benchmark exits non-zero, printing no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    if not (run.SRC / "maxec" / "__init__.py").is_file():
        print(f"error: no maxec sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    metrics_reported()
    checks_trip()
    missing_reported()
    refuses_bare_directory()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
