"""wrlat benchmark: time fixed workloads end to end, or trace them by layer.

    python3 bench/run.py --workload scan-quartic-deep --seed 0 --seconds 36 --trace 0

Run from the repository root; wrlat is imported from `src/`.  One run
expands the workload's field list, then repeats the operation for about
`--seconds` (at least once), each time on a new order of its inputs drawn
from the seed, so that a run also averages over the orders, which decide how
fields fall into the worker pool's chunks.  Every repetition's output is
checked against the reference digest before anything is reported.

With `--trace 0` the operation runs untraced and the end-to-end metrics are
reported.  The host's speed drifts by up to 1.7x over seconds to minutes,
with CPU time tracking wall time, so raw times of the same code spread by
20-30% from run to run.  While the operation runs, a timer therefore pauses
it every `CALIBRATION_PERIOD_S` to time a fixed exact-arithmetic loop of the
benchmark's own (`_calibration_loop`); the pauses are left out of the
operation's wall and CPU time.  Every time is reported scaled to a reference
host speed: measured time x `CALIBRATION_REF_S` / mean loop time of the run.
On a host twice as fast, the measured time and the loop time both halve and
the scaled time stays the same; a change to wrlat moves the scaled time as
it moves the measured one.  The unscaled times and the speed factor are
printed above the result line.  Times are the run's totals divided by its
repetitions.  `setup_s` is the median of fresh-interpreter set-up runs made
between the repetitions, scaled by the same factor.

With `--trace 1` the operation runs in process with one worker, every wrlat
layer wrapped by `tracing.Tracer`, and the per-layer metrics are reported as
medians over the repetitions.

A machine description (CPU, Python, load average before and after, a fixed
calibration loop) is printed with every result: only runs interleaved on the
same machine are comparable.  The last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import gc
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS_PER_GAP = 2
MIN_SETUP_RUNS = 6
CALIBRATION_PERIOD_S = 0.5
# CPU time of one calibration loop at the reference host speed, about what
# it takes inside a run on a 2-core Xeon VM with Python 3.11; scaled times
# read as seconds on a host of that speed
CALIBRATION_REF_S = 0.02

# end-to-end metric -> unit, in the order they are printed
END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unavailable"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _calibration_loop(n=6, rounds=15):
    """A fixed load like wrlat's own: exact Gaussian elimination over Fractions
    and a dict of small ints.  It runs with the garbage collector off, so that
    a collection of the benchmark's heap does not land in a sample."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        for r in range(rounds):
            rows = [[Fraction((i * 7 + j * 13 + r) % 17 - 8, 1 + (i + j) % 5)
                     for j in range(n)] for i in range(n)]
            for i in range(n):
                rows[i][i] += 20
            for c in range(n):
                for i in range(c + 1, n):
                    f = rows[i][c] / rows[c][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
            counts = {}
            for k in range(2000):
                counts[k * k % 1009] = counts.get(k * k % 1009, 0) + k
    finally:
        if gc_was_on:
            gc.enable()


def _calibration_sample():
    """CPU time of one calibration loop: unlike wall time, it does not count
    the time this process waits for a core that pool workers hold."""
    t0 = time.thread_time()
    _calibration_loop()
    return time.thread_time() - t0


class Calibrator:
    """Samples the host speed while the timed operation runs: every
    `CALIBRATION_PERIOD_S` of wall time a SIGALRM handler, which Python runs
    in the main thread between bytecodes, times one calibration loop.  The
    pause is recorded, so that it can be left out of the operation's times.
    Pool workers forked during sampling inherit no timer."""

    def __init__(self):
        self.samples = []
        self.paused_wall = 0.0
        self.paused_cpu = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        cpu = _calibration_sample()
        self.samples.append(cpu)
        self.paused_cpu += cpu
        self.paused_wall += time.perf_counter() - t0

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def speed(self):
        """Host speed relative to the reference; measured times are multiplied
        by it to give times at the reference speed."""
        return CALIBRATION_REF_S / statistics.fmean(self.samples)


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _setup_s(workload):
    """Fresh interpreter until wrlat is imported and the field list is expanded."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload]
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def measure(workload, expanded, rng, seconds, tracer=None, calibrator=None, between=None):
    """Repeat the operation for about `seconds`, each time on a new
    permutation of the inputs from `rng`; check each output.  The operation
    runs traced by `tracer`, or else sampled by `calibrator`.

    A repetition starts only if it is expected to end within half a
    repetition of `seconds`, so a run lasts about `seconds` whatever the
    host speed.  `between()` is called after every repetition, outside the
    timed region.  Returns (outcomes, per-repetition metric dicts,
    largest child RSS in KiB after the first repetition)."""
    jobs = 1 if tracer else workload.jobs
    run = tracer.wrap(tracing.ROOT_SPAN, workload.run) if tracer else workload.run
    outcomes, reps, durations = [], [], []
    child_rss = None
    start = time.perf_counter()
    while True:
        inputs = workload.order(expanded, rng)
        if tracer:
            tracer.reset()
            cpu0, t0 = _cpu_s(), time.perf_counter()
            raw = run(inputs, jobs)
            wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        else:
            paused = calibrator.paused_wall, calibrator.paused_cpu
            cpu0, t0 = _cpu_s(), time.perf_counter()
            with calibrator.sampling():
                raw = run(inputs, jobs)
            wall = time.perf_counter() - t0 - (calibrator.paused_wall - paused[0])
            cpu = _cpu_s() - cpu0 - (calibrator.paused_cpu - paused[1])
        outcome = workload.check(raw)
        del raw, inputs
        outcomes.append(outcome)
        if tracer:
            reps.append(tracer.layer_metrics())
        else:
            reps.append({"wall_s": wall, "cpu_s": cpu, "items": outcome.items})
        if child_rss is None:
            child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        durations.append(time.perf_counter() - t0)
        if between:
            between()
        if time.perf_counter() - start + statistics.median(durations) / 2 >= seconds:
            return outcomes, reps, child_rss


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import workloads
    except ImportError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    workload = workloads.WORKLOADS[args.workload]

    machine = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "loadavg_before": _loadavg(),
        "calibration_s": statistics.median(_calibration_sample() for _ in range(5)),
    }
    expanded = workload.expand()
    rng = random.Random(args.seed)
    if args.trace:
        tracer = tracing.Tracer()
        with tracer.patched():
            outcomes, reps, _ = measure(workload, expanded, rng, args.seconds, tracer)
        units = tracing.LAYER_UNITS
    else:
        setup = []
        calibrator = Calibrator()
        outcomes, reps, child_rss = measure(
            workload, expanded, rng, args.seconds, calibrator=calibrator,
            between=lambda: setup.extend(_setup_s(args.workload)
                                         for _ in range(SETUP_RUNS_PER_GAP)))
        while len(setup) < MIN_SETUP_RUNS:
            setup.append(_setup_s(args.workload))
        units = END_TO_END_UNITS
        speed = calibrator.speed()
        machine["calibration_samples"] = len(calibrator.samples)
        machine["speed"] = speed
    machine["loadavg_after"] = _loadavg()

    if args.trace:
        values = {name: statistics.median(rep[name] for rep in reps) for name in units}
    else:
        wall = sum(rep["wall_s"] for rep in reps) * speed
        values = {
            "wall_s": wall / len(reps),
            "cpu_s": sum(rep["cpu_s"] for rep in reps) * speed / len(reps),
            "items_per_s": sum(rep["items"] for rep in reps) / wall,
            "setup_s": statistics.median(setup) * speed,
            # the benchmark process plus its largest pool worker, if any
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            + child_rss) / 1024,
        }
    attempted = sum(o.units for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = all(not o.errors for o in outcomes)

    for o in outcomes:
        for err in o.errors[:20]:
            print("FAIL %s: %s" % (args.workload, err), file=sys.stderr)
    print("machine: %s" % json.dumps(machine, sort_keys=True))
    print("workload %s seed %d trace %d: %d repetitions, digest %s"
          % (args.workload, args.seed, args.trace, len(reps), outcomes[0].digest))
    first = "trace.wall_s" if args.trace else "wall_s"
    print("  %s per repetition, unscaled: %s"
          % (first, " ".join("%.4f" % rep[first] for rep in reps)))
    if not args.trace:
        print("  setup_s per set-up run, unscaled: %s" % " ".join("%.4f" % t for t in setup))
        print("  host speed %.4f of the reference, from %d calibration samples; "
              "times below are multiplied by it" % (speed, len(calibrator.samples)))
    for name, unit in units.items():
        print("  %-40s %14.6f %s" % (name, values[name], unit))
    print("  %-40s %14.6f ratio (%d of %d operations)"
          % ("failed_share", failed / attempted, failed, attempted))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
