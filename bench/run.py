"""frobinv benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload prime-field --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; frobinv is imported from ``src/``.
The run repeats whole rounds of the workload's operations for as long as
another round still fits in ``--seconds``, checks every result against the
oracles in ``oracles.py`` and prints, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (solve_s, setup_s,
peak_rss_mib, cache_hit_s).  ``--trace 1`` reports the per-layer metrics:
two untraced rounds, then traced rounds, with frobinv's public functions
wrapped from outside (``tracing.py``).

An operation fails when it raises, passes its time limit or returns a
result its oracle rejects; ``correct`` is false only in the last case.
Set-up runs in fresh interpreters, before the rounds and after each one,
and reports the median.
See README.md for the workloads and the metrics.
"""

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from workloads import OP_LIMIT_S, ROOT, SRC, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
SETUP_SAMPLES_PER_ROUND = 2
WORK = os.path.join(ROOT, ".bench_work")
TRACE_OUT = os.path.join(ROOT, ".bench_trace")


class OpTimeout(BaseException):
    """Raised in the benchmark process when an operation passes its limit."""


def _on_alarm(signum, frame):
    # a pool sweep waits on its workers; end them so the wait ends too
    for child in multiprocessing.active_children():
        child.kill()
    raise OpTimeout()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def run(self, op):
        """Run one operation under the time limit; returns its wall seconds."""
        self.attempted += 1
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        start = time.perf_counter()
        try:
            result = op.run()
        except OpTimeout:
            return self._fail(op, "timed out after %.0f s" % OP_LIMIT_S, start)
        except subprocess.TimeoutExpired:
            return self._fail(op, "timed out after %.0f s" % OP_LIMIT_S, start)
        except Exception as exc:  # the op's own failure, reported and counted
            return self._fail(op, "raised %s: %s" % (type(exc).__name__, exc), start)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        spent = time.perf_counter() - start
        try:
            reason = op.check(result)
        except Exception as exc:  # a result of the wrong shape is a wrong result
            reason = "its check raised %s: %s" % (type(exc).__name__, exc)
        if reason:
            self.failed += 1
            self.wrong += 1
            print("FAILED %s: %s" % (op.name, reason), file=sys.stderr)
        return spent

    def _fail(self, op, why, start):
        self.failed += 1
        print("FAILED %s: %s" % (op.name, why), file=sys.stderr)
        return time.perf_counter() - start


def rounds(seconds, one_round):
    """Run whole rounds while the next one, as long as the last, still ends
    within ``seconds``; always at least one.  Returns their results."""
    results = []
    start = time.perf_counter()
    last = 0.0
    while not results or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        results.append(one_round())
        last = time.perf_counter() - began
    return results


def run_round(workload, tally):
    """One round: every pass in order.  Returns the seconds of each solve
    operation and of each cache hit."""
    workload.start_round()
    solve = [tally.run(op) for op in workload.passes["solve"]]
    for op in workload.passes["fill"]:
        tally.run(op)
    hits = [tally.run(op) for op in workload.passes["hit"]]
    print("round: solve %s s; cache hits %s s" % (
        " ".join("%.4f" % t for t in solve), " ".join("%.4f" % h for h in hits)),
        file=sys.stderr)
    return solve, hits


class SetupProbe:
    """Fresh interpreters that import frobinv and build the workload's inputs
    (for cli-corpus: ``frobinv --version``), timed from start to exit.

    The first start writes bytecode caches and is not timed.  Samples are
    taken before the rounds and after each one, so that their median covers
    the whole run rather than one moment of it.
    """

    def __init__(self, name, seed):
        self.env = workloads.cli_env()
        if name == "cli-corpus":
            self.argv = [sys.executable, "-m", "frobinv", "--version"]
        else:
            code = ("import sys; sys.path.insert(0, %r); import workloads; "
                    "workloads.build(%r, %d, %r)" % (
                        HERE, name, seed, os.path.join(WORK, "setup-%d" % os.getpid())))
            self.argv = [sys.executable, "-c", code]
        self.samples = []
        self._start()

    def _start(self):
        start = time.perf_counter()
        # with pipes, the wait ends when the child closes them; without,
        # a wait with a timeout polls in steps of up to 50 ms
        subprocess.run(self.argv, cwd=ROOT, env=self.env, check=True,
                       timeout=OP_LIMIT_S, capture_output=True)
        return time.perf_counter() - start

    def sample(self, n):
        self.samples += [self._start() for _ in range(n)]


def peak_rss_mib():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# Each operation does the same work every round, and on a shared machine a
# slow phase only ever adds time to it, so an operation is timed by its
# fastest round: solve_s sums those, cache_hit_s is their median.

def fastest(rounds_of_times):
    """Per operation, its least time over the rounds."""
    return [min(times) for times in zip(*rounds_of_times)]


def fastest_total(rounds_of_times):
    return sum(fastest(rounds_of_times))


def measure(args, workdir):
    tally = Tally()
    setup = SetupProbe(args.workload, args.seed)
    setup.sample(SETUP_SAMPLES)
    workload = workloads.build(args.workload, args.seed, workdir)

    def one_round():
        result = run_round(workload, tally)
        setup.sample(SETUP_SAMPLES_PER_ROUND)
        return result
    results = rounds(args.seconds, one_round)
    metrics = {
        "solve_s": (fastest_total([solve for solve, _ in results]), "s"),
        "setup_s": (statistics.median(setup.samples), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
        "cache_hit_s": (statistics.median(fastest([hits for _, hits in results])), "s"),
    }
    return tally, metrics


def measure_traced(args, workdir):
    import tracing
    start = time.perf_counter()
    import frobinv.cli  # noqa: F401  -- the package import, timed
    import_s = time.perf_counter() - start

    tally = Tally()
    workload = workloads.build(args.workload, args.seed, workdir, in_process=True)
    start = time.perf_counter()
    untraced = [run_round(workload, tally)[0] for _ in range(2)]
    cell_dir = os.path.join(workdir, "cells")
    os.makedirs(cell_dir, exist_ok=True)
    tracer = tracing.install(tracing.Tracer(cell_dir))
    traced = [solve for solve, _ in rounds(args.seconds - (time.perf_counter() - start),
                                           lambda: run_round(workload, tally))]
    metrics = tracing.metrics(tracer, len(traced))
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.overhead"] = (fastest_total(traced) / fastest_total(untraced), "ratio")
    tracing.write_spans(tracer, os.path.join(
        TRACE_OUT, "%s-seed%d.json" % (args.workload, args.seed)))
    return tally, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "frobinv", "cli.py")):
        print("error: no frobinv sources under %s; run from a source checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _on_alarm)

    workdir = os.path.join(WORK, "run-%d" % os.getpid())
    try:
        if args.trace:
            tally, metrics = measure_traced(args, workdir)
        else:
            tally, metrics = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(os.path.join(WORK, "setup-%d" % os.getpid()), ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
