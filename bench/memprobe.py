"""Peak resident memory of a process that only runs the operations.

Usage: ``python3 bench/memprobe.py SRC < OPS.json``. Imports ``maxec`` from
SRC, reads a JSON list of argument lists from stdin, runs each once
through ``maxec.cli.run``
with stdout and stderr captured, as the timed passes do, and prints the
process's maximum resident set in MB. Outputs are not judged here; the
timed passes judge the same operations. No bench object lives in this
process, so the figure is the interpreter, the program and its largest
operation. The peak survives ``exec``: a process forked from the bench
starts from the bench's own peak, so the bench starts this one before it
builds anything and sends the operations once they are written.
"""

import contextlib
import io
import json
import resource
import signal
import sys

# per-operation budget, shared with the timed passes: every operation of
# every workload takes well under a second today, so only a hang or a
# blow-up reaches it
OP_BUDGET_S = 10.0


def _alarm(signum, frame):
    raise TimeoutError()


def main() -> int:
    (src,) = sys.argv[1:]
    sys.path.insert(0, src)
    import maxec.cli

    ops = json.load(sys.stdin)
    signal.signal(signal.SIGALRM, _alarm)
    for argv in ops:
        sink = io.StringIO()
        try:
            signal.setitimer(signal.ITIMER_REAL, OP_BUDGET_S)
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                maxec.cli.run(argv)
        except BaseException:  # judged in the timed passes, not here
            pass
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return 0


if __name__ == "__main__":
    sys.exit(main())
