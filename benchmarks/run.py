"""Benchmark of the ringdecay CLI, run in process by one closed-loop client.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/``
of the checkout the script sits in.  Each run builds the workload's
batch of CLI command lines from the seed, clears the library's caches
before every op (each op stands for one fresh CLI process), runs the
batch again and again until ``--seconds`` have passed, and checks every
output.  The process is pinned to one core and the BLAS pool to one
thread.  Times are reported at the host's reference speed: each is
scaled by a fixed pure-Python loop timed next to it (see ``HostSpeed``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced batches and prints the per-layer metrics, with the
tracing overhead against the untraced batches.  The spans of the last
traced batch are written to ``.bench_out/``.  The last line of stdout is
the result as one JSON object; the line before it records the
environment.  See ``benchmarks/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
# Set before numpy loads.  One BLAS thread keeps the measured process on
# one core, so a BLAS helper thread never competes with it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("spectrum-large-n", "coeff-tables", "sweep", "validate")
# Never used while the benchmark was written; kept for confirming claims.
HELD_OUT_SEED = 20250117
SETUP_REPEATS = 7
SETUP_CODE = "import ringdecay.cli; ringdecay.cli.build_parser()"
# The reference loop (see HostSpeed): its length, the share of a run
# spent timing it, how many of its samples scale one measured time, and
# the time that defines the reference speed, a round figure near the
# loop's time on a 2-core Xeon VM at 2.0 GHz (Python 3.11) at its fastest.
LOOP_ITERATIONS = 20_000
LOOP_SHARE = 0.12
LOOP_NEIGHBOURS = 8
LOOP_REF_S = 0.002


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def import_package():
    """Import ringdecay from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "ringdecay" / "__init__.py").is_file():
        raise SystemExit(f"error: no ringdecay package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ringdecay.cli

    if Path(ringdecay.__file__).resolve().parent != SRC / "ringdecay":
        raise SystemExit(f"error: imported ringdecay from {ringdecay.__file__}")
    return ringdecay


def clear_caches() -> None:
    """Empty every ``functools`` cache in the package, as a fresh process has."""
    for name, module in list(sys.modules.items()):
        if name == "ringdecay" or name.startswith("ringdecay."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def time_setup() -> tuple[float, float]:
    """Start and wall time of a fresh interpreter that imports the CLI and builds its parser."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True)
    return start, time.perf_counter() - start


def reference_loop() -> float:
    """Fixed pure-Python arithmetic: the yardstick of the host's speed."""
    total = 0.0
    for i in range(LOOP_ITERATIONS):
        total += abs(i * 0.5 - 3.0)
    return total


class HostSpeed:
    """Times ``reference_loop`` between ops and scales measured times by it.

    The host is shared.  Other tenants slow this core down by up to a
    factor of two, in stretches that last from a fraction of a second to
    minutes, so the same op's time spreads by 0.1 to 0.3 of its median
    from one 30 s run to the next, and its best time by as much.  The loop, timed
    next to the ops, slows down with them.  A measured time is divided by
    the median time of the loop samples around it (half before, half
    after) and multiplied by ``LOOP_REF_S``: it becomes the time the op
    takes when the host runs the loop in ``LOOP_REF_S``.

    The loop is pure interpreter work.  ringdecay's ops tracked it more
    closely than they tracked numpy work, the N x N matrix of
    ``spectrum-large-n`` included.  The loop is the benchmark's own code,
    so no change to ringdecay can move it.
    """

    def __init__(self):
        self.mids: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0
        self.start = time.perf_counter()
        self.measure(LOOP_NEIGHBOURS)

    def measure(self, count: int = 1) -> None:
        gc.disable()
        for _ in range(count):
            start = time.perf_counter()
            reference_loop()
            end = time.perf_counter()
            self.mids.append(0.5 * (start + end))
            self.times.append(end - start)
            self.spent += end - start
        gc.enable()

    def between_ops(self) -> None:
        """Time the loop until it has taken ``LOOP_SHARE`` of the run so far."""
        while self.spent < LOOP_SHARE * (time.perf_counter() - self.start):
            self.measure()

    def finish(self) -> None:
        """Time the loop after the last op, so it too has samples on both sides."""
        self.measure(LOOP_NEIGHBOURS // 2)

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, brought to the reference speed."""
        i = bisect.bisect(self.mids, start + 0.5 * seconds)
        half = LOOP_NEIGHBOURS // 2
        around = self.times[max(0, i - half):i + half]
        return seconds * LOOP_REF_S / statistics.median(around)


class SetupTimer:
    """Set-up samples spread evenly over the run, between ops.

    The host's load changes over seconds, so samples taken together at
    the start would all see one moment of it; spread out, they see the
    same mix as the ops.  The first interpreter is not counted: it may
    write the bytecode cache.
    """

    def __init__(self, seconds: float):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.every = seconds / SETUP_REPEATS
        time_setup()
        self.start = time.perf_counter()

    def between_ops(self) -> None:
        due = time.perf_counter() - self.start >= len(self.samples) * self.every
        if due and len(self.samples) < SETUP_REPEATS:
            self.samples.append(time_setup())

    def finish(self) -> list[tuple[float, float]]:
        while len(self.samples) < SETUP_REPEATS:
            self.samples.append(time_setup())
        return self.samples


def run_op(cli, op, tracer=None):
    """Run one command line through ``cli.main``; return (seconds, code, out, err)."""
    clear_caches()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(op.argv))
        except Exception as exc:  # an op that raises is counted as failed
            code = f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    text = out.getvalue()
    if tracer is not None:
        tracer.count("cli.rows_written", text.count("\n"))
    return elapsed, code, text, err.getvalue()


class Client:
    """One closed-loop client: the next op starts when the previous one ends."""

    def __init__(self, cli, check, ops, between_ops=lambda: None):
        self.cli, self.check, self.ops = cli, check, ops
        self.between_ops = between_ops
        self.samples: list[list[float]] = [[] for _ in ops]  # seconds, per op
        self.starts: list[list[float]] = [[] for _ in ops]  # perf_counter, per op
        self.failed = 0

    @property
    def attempted(self) -> int:
        return sum(map(len, self.samples))

    def run(self, i: int, tracer=None) -> float:
        """Run op i, check its output and return its time."""
        op = self.ops[i]
        if tracer is not None:
            tracer.op = i
        elapsed, code, out, err = run_op(self.cli, op, tracer)
        self.starts[i].append(time.perf_counter() - elapsed)
        self.samples[i].append(elapsed)
        problems = self.check(op, code, out, err)
        if problems:
            self.failed += 1
            print(f"FAILED {' '.join(op.argv)}: {'; '.join(problems[:3])}", file=sys.stderr)
        self.between_ops()
        return elapsed

    def batch(self, tracer=None) -> float:
        """Run every op once; return the summed op time."""
        return sum(self.run(i, tracer) for i in range(len(self.ops)))


def repeat_for(seconds: float, step) -> None:
    """Call ``step`` for about ``seconds``, at least once.

    A call starts only if it should end less than half a call past the
    time, so long batches do not overrun by a whole batch.
    """
    start = time.perf_counter()
    calls = 0
    while True:
        step()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / calls >= seconds:
            return


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    with contextlib.suppress(OSError):
        return (git / ref).read_text().strip()
    with contextlib.suppress(OSError):
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(args, cpus: set[int]) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(cpus),
        "pinned_cpu": max(cpus),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "absent_metrics": "wait and retry: no layer queues or retries in one process",
    }


def interquartile_mean(values: list[float]) -> float:
    """Mean of the values left when the lowest and highest quarter are dropped."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def end_to_end(client: Client, setup: list[tuple[float, float]],
               speed: HostSpeed) -> tuple[dict, dict]:
    """The end-to-end metrics, and the same times unscaled for the record.

    An op's latency is the interquartile mean of its times over the run's
    batches, each brought to the reference speed.  The percentiles are
    taken across the batch's ops.
    """
    def summary(scale) -> dict:
        op_ms = sorted(1e3 * interquartile_mean([scale(t, s) for t, s in zip(starts, samples)])
                       for starts, samples in zip(client.starts, client.samples))
        p90 = op_ms[0]
        if len(op_ms) > 1:
            p90 = statistics.quantiles(op_ms, n=10, method="inclusive")[-1]
        return {
            "setup_s": (statistics.median(scale(t, s) for t, s in setup), "s"),
            "wall_s": (sum(op_ms) / 1e3, "s"),
            "op_p50_ms": (statistics.median(op_ms), "ms"),
            "op_p90_ms": (p90, "ms"),
        }

    metrics = summary(speed.scaled)
    metrics.update({
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "success_rate": ((client.attempted - client.failed) / client.attempted, "ratio"),
    })
    unscaled = {name: value for name, (value, _) in summary(lambda t, s: s).items()}
    return metrics, unscaled


def per_layer(client: Client, modules: dict, seconds: float,
              spans_path: Path) -> tuple[dict, int]:
    from spans import Tracer, layer_metrics

    untraced, traced, samples = [], [], []
    tracer = None

    def pair():
        nonlocal tracer
        untraced.append(client.batch())
        tracer = Tracer()
        tracer.install(modules)
        try:
            traced.append(client.batch(tracer))
        finally:
            tracer.uninstall()
        samples.append(layer_metrics(tracer))

    repeat_for(seconds, pair)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(spans_path)
    # each traced batch runs the same ops, so the counts agree across
    # batches and the median only smooths the times
    metrics = {name: (statistics.median(s[name][0] for s in samples), unit)
               for name, (_, unit) in samples[0].items()}
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    return metrics, len(traced)


def main(argv=None) -> int:
    args = parse_args(argv)
    # One core for the whole run: the ops, the reference loop and the
    # set-up interpreters, which inherit it, share that core's slowdowns.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    ringdecay = import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import GENERATORS, check

    modules = {name: sys.modules[name] for name in
               ("ringdecay.cli", "ringdecay.spectrum", "ringdecay.validation")}
    info = environment(args, cpus)
    ops = GENERATORS[args.workload](args.seed)

    if args.trace:
        client = Client(ringdecay.cli, check, ops)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        metrics, info["traced_batches"] = per_layer(client, modules, args.seconds, spans_path)
        info["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        setup, speed = SetupTimer(args.seconds), HostSpeed()

        def between_ops():
            setup.between_ops()
            speed.between_ops()

        client = Client(ringdecay.cli, check, ops, between_ops)
        repeat_for(args.seconds, client.batch)
        setup_samples = setup.finish()
        speed.finish()
        metrics, info["unscaled"] = end_to_end(client, setup_samples, speed)
        info.update(setup_samples=len(setup_samples), loop_samples=len(speed.times),
                    loop_median_s=statistics.median(speed.times))

    info.update(ops_per_batch=len(client.ops), op_samples=client.attempted,
                batches=len(client.samples[0]))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
