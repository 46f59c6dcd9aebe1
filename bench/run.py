"""End-to-end benchmark of the maxec CLI, with an optional per-layer trace.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload solve-fpt --seed 1 --seconds 30 --trace 0

One process, one thread, one client in a closed loop: every operation is
an in-process call of ``maxec.cli.run([...])`` on documents written at
set-up, with stdout and stderr captured, sent only after the previous one
returned. The run builds the workload from ``--seed``, repeats whole passes
over its operations as long as they fit in ``--seconds`` (at least one),
judges every output against the stored reference answers, prints a
readable report and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``). Every timed interval is scaled to the host's idle
speed by calibration loops sampled between operations (``hostspeed.py``);
an operation's time is the median of its scaled times over the untraced
passes. ``peak_rss_mb`` comes from a separate process that runs every
operation once (``memprobe.py``). A traced run alternates untraced and
traced passes, so the tracing overhead is the difference of their times;
the per-layer span times are not scaled. See ``WORKLOADS.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

from hostspeed import HostSpeed
from judge import NEGATIVE, POSITIVE, Wrong, expected_exit, judge
from memprobe import OP_BUDGET_S
from spans import RUN_POINTS, SETUP_POINTS, Tracer, pass_metrics, unit
from workloads import WORKLOADS, References, build

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MODULES = ("cli", "formats", "generators", "graphs", "kernels", "matching", "oracle", "solver")

SETUP_REPS = 7
# no new operation starts after this, so a run always ends within 180 s
RUN_LIMIT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "yes_wall_s": "s",
    "no_wall_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = (
    "cli.self_s", "formats.load_s", "formats.render_s", "formats.bytes_in",
    "matching.preprocess_s", "matching.coloring_s", "matching.forced_share",
    "matching.cover_mean", "solver.search_s", "solver.palettes", "solver.x_guesses",
    "solver.top_branch_events", "solver.across_branch_events", "solver.yes_per_palette",
    "solver.s_per_palette", "kernels.standard_s", "kernels.dual_s", "kernels.c4free_s",
    "kernels.lift_s", "kernels.n_kept", "kernels.m_kept", "graphs.verify_s",
    "oracle.sigma_s", "oracle.edges", "generators.gen_s",
    "cli.share", "formats.share", "matching.share", "solver.share", "kernels.share",
    "oracle.share", "graphs.share", "trace.overhead_s", "trace.missing",
)


class OpBudgetExceeded(BaseException):
    """Raised by the alarm inside an operation that ran past its budget;
    a BaseException so no handler in the program can swallow it."""


def _alarm(signum, frame):
    raise OpBudgetExceeded()


def import_maxec() -> SimpleNamespace:
    """A fresh import of the package from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "maxec" or m.startswith("maxec.")]:
        del sys.modules[name]
    pkg = importlib.import_module("maxec")
    if Path(pkg.__file__).resolve().parent != SRC / "maxec":
        raise ImportError(f"maxec imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"maxec.{m}") for m in MODULES})


def call(cli_run, argv: list[str]) -> tuple[str | None, int, str, float]:
    """(error, exit code, stdout, seconds) of one budgeted CLI call."""
    out, err = io.StringIO(), io.StringIO()
    code, error = -1, None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_BUDGET_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_run(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpBudgetExceeded:
        error = f"over the {OP_BUDGET_S:g} s budget"
    except Exception as exc:  # any escape from cli.run is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if error is None and code not in (0, 1):
        # 2 (usage or format error) and 3 (refusal) never answer a
        # well-formed bench document
        error = f"exit code {code}: {err.getvalue().strip()[:200]}"
    return error, code, out.getvalue(), seconds


def _read(path: str | None) -> str:
    if path is None or not os.path.exists(path):
        raise Wrong(f"expected output file {path} is missing")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _digest(op, code: int, stdout: str) -> str:
    h = hashlib.sha256(f"{code}\n{stdout}".encode())
    for path in (op.out, op.out and op.out + ".lift", op.coloring):
        if path and os.path.exists(path):
            h.update(Path(path).read_bytes())
    return h.hexdigest()


class Run:
    """Passes over one workload's operations, with their judgements."""

    def __init__(self, cli_run, ops, deadline: float, probe, probe_times: list[float],
                 speed: HostSpeed):
        self.cli_run = cli_run
        self.speed = speed
        self.ops = ops
        self.deadline = deadline
        self.probe = probe
        self.probe_times = probe_times
        self.seen: list[tuple | None] = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def judge(self, i: int, error, code: int, stdout: str) -> str | None:
        """Verdict of a correct, cleanly exiting operation, else None.
        Output identical to an earlier pass reuses that judgement."""
        if error is not None:
            return self.fail(i, error)
        op = self.ops[i]
        digest = _digest(op, code, stdout)
        if self.seen[i] is None or self.seen[i][0] != digest:
            try:
                self.seen[i] = (digest, judge(op, stdout, _read), None)
            except Wrong as exc:
                self.seen[i] = (digest, None, f"wrong: {exc}")
        _, verdict, problem = self.seen[i]
        if verdict is None:
            self.wrong += 1
            return self.fail(i, problem)
        if code != expected_exit(verdict):
            return self.fail(i, f"exit code {code} after {verdict}")
        return verdict

    def fail(self, i: int, reason: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"op {i} ({' '.join(self.ops[i].argv[:-1])}): {reason}")
        return None

    def one_pass(self, tracer: Tracer | None):
        """Per-op seconds at the host's idle speed, and verdicts (None for
        a failed operation)."""
        raw, verdicts = [], []
        for i, op in enumerate(self.ops):
            if self.probe_times and time.perf_counter() >= self.probe_times[0]:
                self.probe_times.pop(0)
                self.probe()
            self.speed.tick()
            self.attempted += 1
            if time.perf_counter() > self.deadline:
                self.fail(i, f"not started: the run passed {RUN_LIMIT_S:g} s")
                raw.append((0.0, 0.0))
                verdicts.append(None)
                continue
            if tracer is not None:
                tracer.op = i
                span = tracer.open("cli.run")
            start = time.perf_counter()
            error, code, stdout, seconds = call(self.cli_run, op.argv)
            if tracer is not None:
                tracer.close(span)
            raw.append((start, seconds))
            verdicts.append(self.judge(i, error, code, stdout))
        self.speed.sample()
        return [self.speed.scaled(start, s) for start, s in raw], verdicts


def per_op(passes: list[list[float]]) -> list[float]:
    """Each operation's median over the passes of its scaled times: an
    operation timed across a change of the host's speed is scaled by the
    wrong factor, and the median leaves that pass out."""
    return [statistics.median(ts) for ts in zip(*passes)]


def start_memprobe() -> subprocess.Popen:
    """The memory probe (``memprobe.py``), started while the bench is still
    small: a child's peak resident set starts at its parent's."""
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("memprobe.py")), str(SRC)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def peak_rss_mb(probe: subprocess.Popen, ops, timeout: float) -> float:
    """Maximum resident set of the probe process, which runs every operation
    once and holds nothing of the bench."""
    out, err = probe.communicate(json.dumps([op.argv for op in ops]), timeout=max(timeout, 1.0))
    if probe.returncode != 0:
        raise RuntimeError(f"memprobe.py exited {probe.returncode}: {err.strip()[-500:]}")
    return float(out.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, traced: bool,
            scale: float = 1.0, reps: int = SETUP_REPS) -> dict:
    """Set up, run and judge one workload; returns the report as a dict."""
    run_start = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK)
    previous = signal.signal(signal.SIGALRM, _alarm)
    refs = References()
    probe = speed = None
    setups, gens = [], []

    def set_up(directory: str):
        """One timed set-up: fresh import, documents written to directory.
        Each set-up gets a directory of its own and all are removed at the
        end, because deleting thousands of files just before writing them
        again slows the writes by up to ten times on ext4."""
        os.mkdir(directory)
        gc.collect()
        speed.sample()
        start, ref_before = time.perf_counter(), refs.seconds
        mx = import_maxec()
        tracer = Tracer()
        if traced:
            tracer.install(mx, SETUP_POINTS)
        ops = build(workload, seed, mx, directory, refs, scale)
        elapsed = time.perf_counter() - start
        speed.sample()
        ref_s = refs.seconds - ref_before
        setups.append((elapsed - ref_s) / speed.factor(start, start + elapsed))
        tracer.uninstall()
        gens.append(sum(s.end - s.start for s in tracer.spans))
        gc.collect()
        return mx, ops

    try:
        # the probe first, then the calibration structure of tens of MB
        probe = None if traced else start_memprobe()
        speed = HostSpeed()
        mx, ops = set_up(os.path.join(workdir, "docs"))
        deadline = run_start + RUN_LIMIT_S
        rss = None if traced else peak_rss_mb(probe, ops, deadline - time.perf_counter())
        # the other set-ups go into spare directories at even intervals of
        # the timed passes, between operations, so that one slow stretch of
        # the shared host cannot set their median alone
        began = time.perf_counter()
        probe_times = [began + seconds * i / reps for i in range(1, reps)]
        probes = iter(range(1, reps))
        run = Run(mx.cli.run, ops, deadline,
                  lambda: set_up(os.path.join(workdir, f"probe{next(probes)}")), probe_times,
                  speed)
        plain, layered, pass_s = [], [], []
        missing: list[str] = []
        while True:
            tracer = Tracer() if traced and len(plain) > len(layered) else None
            if tracer is not None:
                tracer.install(mx, RUN_POINTS)
            # the bench's own objects (documents, references, judgements)
            # must not make the program's garbage collections slower
            gc.collect()
            gc.freeze()
            pass_start = time.perf_counter()
            try:
                times, verdicts = run.one_pass(tracer)
            finally:
                pass_s.append(time.perf_counter() - pass_start)
                if tracer is not None:
                    tracer.uninstall()
            if tracer is None:
                plain.append((times, verdicts))
            else:
                missing = tracer.missing
                layered.append((times, pass_metrics(tracer)))
            # whole passes only: stop when another one would end past
            # --seconds, after at least one pass of each kind (past the
            # deadline a pass only marks its operations as not started)
            elapsed = time.perf_counter() - began
            another_fits = elapsed + statistics.mean(pass_s) <= seconds
            done = not another_fits or time.perf_counter() > run.deadline
            if done and (not traced or layered):
                break
        for _ in run.probe_times:
            run.probe()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if probe is not None and probe.poll() is None:
            probe.kill()
            probe.communicate()
        shutil.rmtree(workdir, ignore_errors=True)

    op_s = per_op([t for t, _ in plain])
    verdicts = plain[0][1]
    deciles = statistics.quantiles(op_s, n=10)
    report = {
        "workload": workload, "seed": seed, "ops": len(ops), "passes": len(plain),
        "traced_passes": len(layered), "nproc": os.cpu_count(),
        "attempted": run.attempted, "failed": run.failed, "wrong": run.wrong,
        "problems": run.problems,
        "fail_share": run.failed / run.attempted,
        "host_slowdown": statistics.median(speed.factors),
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "wall_s": sum(op_s),
            "op_p50_ms": 1000 * statistics.median(op_s),
            "op_p90_ms": 1000 * deciles[8],
            "yes_wall_s": sum(t for t, v in zip(op_s, verdicts) if v in POSITIVE),
            "no_wall_s": sum(t for t, v in zip(op_s, verdicts) if v in NEGATIVE),
        },
    }
    if rss is not None:
        report["end_to_end"]["peak_rss_mb"] = rss
    if traced:
        layers = {
            name: statistics.median(p[name] for _, p in layered)
            for name in layered[0][1]
        }
        layers["generators.gen_s"] = statistics.median(gens)
        layers["trace.overhead_s"] = (
            sum(per_op([t for t, _ in layered])) - report["end_to_end"]["wall_s"]
        )
        layers["trace.missing"] = len(missing)
        report["per_layer"] = layers
        report["missing"] = missing
    return report


def print_report(report: dict, traced: bool) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"{report['ops']} operations per pass  {report['passes']} passes"
          f" + {report['traced_passes']} traced  closed loop, 1 client, "
          f"1 thread  nproc {report['nproc']}")
    print(f"  host slowdown: median {report['host_slowdown']:.3f} over the run"
          " (each time below is divided by the slowdown around it)")
    print(f"  fail_share {report['fail_share']:.6f}  "
          f"({report['failed']} of {report['attempted']} operations failed,"
          f" {report['wrong']} wrong)")
    for line in report["problems"]:
        print(f"  failed: {line}")
    for name, value in report["end_to_end"].items():
        print(f"  {name:<28} {value:14.6f} {END_TO_END[name]}")
    if traced:
        for name in PER_LAYER:
            print(f"  {name:<28} {report['per_layer'][name]:14.6f} {unit(name)}")
        for name in report["missing"]:
            print(f"  missing entry point: {name}")


def result_line(report: dict, traced: bool) -> dict:
    if traced:
        metrics = {n: {"value": report["per_layer"][n], "unit": unit(n)} for n in PER_LAYER}
    else:
        metrics = {n: {"value": report["end_to_end"][n], "unit": u} for n, u in END_TO_END.items()}
    return {"correct": report["wrong"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "maxec" / "__init__.py").is_file():
        print(f"error: no maxec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    traced = args.trace == 1
    report = measure(args.workload, args.seed, args.seconds, traced)
    print_report(report, traced)
    print(json.dumps(result_line(report, traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
