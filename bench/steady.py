"""Steadiness report: collect sets of benchmark runs and compare them.

Collect one set of runs, one seed per run, into a JSON file::

    python3 bench/steady.py collect --workload solve-fpt --seeds 1-10 --out a.json

Compare a set against the bounds in ``BENCHMARK.json`` (the spread of each
end-to-end metric, as the distance between its first and third quartile
over its median), or two sets against each other (each median of the
second set as a ratio to the first, which is the base)::

    python3 bench/steady.py compare a.json b.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def collect(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = []
    for workload in args.workload:
        for seed in _seeds(args.seeds):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            records.append({"workload": workload, "seed": seed, "result": result})
            Path(args.out).write_text(json.dumps(records, indent=1))
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values} "
                  f"({elapsed:.1f} s)", flush=True)
    return 0


def _series(records, workload: str, metric: str) -> list[float]:
    return [r["result"]["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and metric in r["result"]["metrics"]]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [json.loads(Path(p).read_text()) for p in args.files]
    ok = True
    for records in sets:
        for r in records:
            if not r["result"]["correct"] or r["result"]["failed"]:
                ok = False
                print(f"{r['workload']} seed {r['seed']}: correct={r['result']['correct']} "
                      f"failed={r['result']['failed']}")
    workloads = sorted({r["workload"] for r in sets[0]})
    header = f"{'workload':<13} {'metric':<12} {'bound':>6} {'median A':>12} {'spread A':>9}"
    if len(sets) == 2:
        header += f" {'median B':>12} {'spread B':>9} {'B/A':>7}"
    print(header)
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cols, flags = [], []
            for records in sets:
                values = _series(records, workload, name)
                if len(values) < 2:
                    cols.append(None)
                    continue
                s = spread(values)
                cols.append((statistics.median(values), s, len(values)))
                if s > bound:
                    flags.append("spread over bound")
                elif s > bound / 3:
                    flags.append("spread over a third of the bound")
            if cols[0] is None:
                continue
            line = f"{workload:<13} {name:<12} {bound:>6.2f} {cols[0][0]:>12.5g} {cols[0][1]:>9.3f}"
            if len(sets) == 2 and cols[1] is not None:
                ratio = cols[1][0] / cols[0][0]
                worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
                line += f" {cols[1][0]:>12.5g} {cols[1][1]:>9.3f} {ratio:>7.3f}"
                if worse > bound:
                    flags.append(f"B worse than A by {worse:.3f} of A")
            ok = ok and not any("over bound" in f or "worse" in f for f in flags)
            print(line + ("  " + "; ".join(flags) if flags else ""))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark once per seed")
    c.add_argument("--workload", action="append", required=True)
    c.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    c.add_argument("--out", required=True)
    c.set_defaults(func=collect)
    p = sub.add_parser("compare", help="spreads of one set, or two sets side by side")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=compare)
    args = parser.parse_args(argv)
    if args.cmd == "compare" and len(args.files) > 2:
        parser.error("compare takes one or two files")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
