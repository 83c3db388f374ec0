"""uniflux benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a source checkout; uniflux is imported from `src/` and
the oracles from `tests/`. The last line of stdout is the JSON result
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones. See README.md.
"""

import os

# One BLAS/OpenMP thread for this process and every interpreter it starts;
# must be set before numpy loads OpenBLAS.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Context  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
EXAMPLE_PROGRAM = TESTS / "data" / "example_program.pulse"
MODULES = ("cli", "fluxonium", "linebudget", "filters", "distortion", "pulsec", "dynamics", "analysis")
FRESH_REPEATS = 3  # fresh interpreters per cold metric; the median is reported
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile
SUBPROCESS_TIMEOUT_S = 60


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _fresh(args):
    """Run one fresh interpreter on ``args``; returns (wall s, exit code, stdout, stderr)."""
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=_child_env(), capture_output=True,
        text=True, timeout=SUBPROCESS_TIMEOUT_S,
    )
    return time.perf_counter() - started, done.returncode, done.stdout, done.stderr


def _fresh_ok(args):
    elapsed, code, stdout, stderr = _fresh(args)
    if code != 0:
        _fail(f"python {' '.join(args)} exited {code}: {stderr.strip()[-300:]}")
    return elapsed, stdout


def _machine(seed):
    import numpy
    import scipy

    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return "unknown"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy),
        "openblas_scipy": blas(scipy),
    }


class Runner:
    """Runs ops, times them, and records which ops failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []  # (op index, kind, message)

    def run(self, op):
        """Run one op; return (latency s, result or None if it failed)."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failing op is counted; the run goes on
            latency = time.perf_counter() - started
            self.failures.append((op.index, op.kind, f"{type(exc).__name__}: {exc}"))
            return latency, None
        return time.perf_counter() - started, result

    def check(self, op, result):
        message = check_message(op, result)
        if message is not None:
            self.failures.append((op.index, op.kind, f"check: {message}"))

    def run_and_check(self, ops):
        """Run ``ops`` in order, then check each; returns the latencies."""
        results = [self.run(op) for op in ops]
        for op, (_, result) in zip(ops, results):
            if result is not None:
                self.check(op, result)
        return [latency for latency, _ in results]


def check_message(op, result):
    """None if ``result`` passes the op's check, else why not."""
    try:
        op.check(result)
    except CheckFailed as exc:
        return str(exc)
    except Exception as exc:  # a malformed output fails its check too
        return f"{type(exc).__name__}: {exc}"
    return None


def _tail(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / n


class SpeedProbe:
    """Times a fixed reference kernel to take the machine's speed drift out of timings.

    On a machine shared with other tenants the CPU speed drifts by tens of
    percent over minutes. Each timing is therefore scaled by
    ``REFERENCE_S / probe``, where ``probe`` is the mean of this kernel's time
    just before and just after it: the result is the time the work would take
    on a machine where the kernel takes ``REFERENCE_S``. The kernel mixes what
    uniflux spends its time on in roughly equal parts (interpreter bytecode,
    120x120 matrix products, a small symmetric eigensolve, an FFT) and never
    calls uniflux, so a change to uniflux cannot move it. With only the
    bytecode and eigensolve parts it tracked the pulse and fit work but not
    the matrix-product-bound Hamiltonian builds.
    """

    REFERENCE_S = 0.004

    def __init__(self):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((120, 120))
        self.matrix = matrix + matrix.T
        self.signal = rng.standard_normal(8192)

    def measure(self):
        """Fastest of three runs of the kernel, so one interruption does not count."""
        times = []
        for _ in range(3):
            started = time.perf_counter()
            total = 0
            for i in range(10000):
                total += i * i
            for _ in range(10):
                self.matrix @ self.matrix
            np.linalg.eigh(self.matrix)
            np.fft.rfft(self.signal)
            times.append(time.perf_counter() - started)
        return min(times)

    def scale(self, seconds, before, after):
        return seconds * self.REFERENCE_S / (0.5 * (before + after))


def _untraced(workload, ctx, runner, seed, seconds, report):
    probe = SpeedProbe()
    setup, cold, raw_setup, raw_cold = [], [], [], []
    cold_op = workload.op(ctx, seed, 2, workload.cold_slot)

    def fresh_pair():
        before = probe.measure()
        elapsed = _fresh_ok(["-c", "import uniflux.cli"])[0]
        middle = probe.measure()
        raw_setup.append(elapsed)
        setup.append(probe.scale(elapsed, before, middle))
        runner.attempted += 1
        elapsed, code, stdout, stderr = _fresh(["-m", "uniflux.cli", *cold_op.argv])
        raw_cold.append(elapsed)
        cold.append(probe.scale(elapsed, middle, probe.measure()))
        if code != 0:
            runner.failures.append((cold_op.index, cold_op.kind, f"exit {code}: {stderr.strip()[-300:]}"))
        else:
            runner.check(cold_op, stdout)

    runner.run_and_check([workload.op(ctx, seed, 1, slot) for slot in workload.warmup])

    # Closed loop, one client: each op starts when the previous one ends.
    # Each rotation's inputs are written before it starts, outside the timed
    # spans. The op list depends only on the seed and --seconds, so two
    # commits measured with the same arguments run identical ops. The fresh
    # interpreters run before, between and after the rotations, so that
    # their median samples the machine at several moments of the run. The
    # speed probe runs between every two ops, outside the timed spans.
    rotations = workload.rotations(seconds)
    fresh_at = [round(k * rotations / (FRESH_REPEATS - 1)) for k in range(FRESH_REPEATS)]
    raw, probes, pending = [], [], []
    for rotation in range(rotations + 1):
        for _ in range(fresh_at.count(rotation)):
            fresh_pair()
        if rotation == rotations:
            break
        first = rotation * len(workload.slots)
        for op in [workload.op(ctx, seed, 0, first + j) for j in range(len(workload.slots))]:
            probes.append(probe.measure())
            latency, result = runner.run(op)
            raw.append(latency)
            pending.append((op, result))
    probes.append(probe.measure())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for op, result in pending:
        if result is not None:
            runner.check(op, result)

    latencies = [probe.scale(t, probes[i], probes[i + 1]) for i, t in enumerate(raw)]
    n = len(latencies)
    tail, percentile = _tail(latencies)
    ok = 1.0 - len(runner.failures) / runner.attempted
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cold_cmd_s": (statistics.median(cold), "s"),
        "ops_per_s": (n / sum(latencies), "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (ok, "ratio"),
    }
    report.append(
        f"timings scaled to a {SpeedProbe.REFERENCE_S * 1e3:g} ms speed probe; "
        f"probe median {statistics.median(probes) * 1e3:.3f} ms over {len(probes)} samples"
    )
    report.append(f"setup_s: median of {len(setup)} fresh `import uniflux.cli`; unscaled {statistics.median(raw_setup)!r} s")
    report.append(
        f"cold_cmd_s: median of {len(cold)} fresh `python -m uniflux.cli {cold_op.argv[0]} ...`; "
        f"unscaled {statistics.median(raw_cold)!r} s"
    )
    report.append(f"ops_per_s: unscaled {n / sum(raw)!r} 1/s")
    report.append(f"op_p50_s: median of n={n} warm ops; unscaled {statistics.median(raw)!r} s")
    report.append(
        f"op_tail_s: p{percentile:.1f} of n={n} warm ops, {n - round(percentile * n / 100)} beyond; "
        f"unscaled {_tail(raw)[0]!r} s"
    )
    by_kind = {}
    for (op, _), latency in zip(pending, latencies):
        by_kind.setdefault(op.kind, []).append(latency)
    for kind, values in by_kind.items():
        report.append(f"  {kind}: n={len(values)} median {statistics.median(values):.4f} s max {max(values):.4f} s")
    report.append(f"failed_frac: {1.0 - ok!r} ratio ({len(runner.failures)} of {runner.attempted} ops)")
    return metrics


def _traced(workload, ctx, runner, seed, seconds, modules, report, spans_path):
    count_code = (
        "import sys; before = set(sys.modules); import uniflux.cli; "
        "print(len(set(sys.modules) - before))"
    )
    import_modules = int(_fresh_ok(["-c", count_code])[1])

    runner.run_and_check([workload.op(ctx, seed, 1, slot) for slot in workload.warmup])
    ops = [workload.op(ctx, seed, 0, i) for i in range(workload.rotations(seconds / 2) * len(workload.slots))]

    # Each op runs traced and then, at once, untraced, so both see the same
    # machine state. The traced run goes first so that its spans see the op's
    # circuit uncached; the untraced rerun may reuse dynamics' qubit-frame
    # cache, which lifts overhead_frac by at most one frame build per op.
    tracer = tracing.Tracer(modules)
    traced_s = untraced_s = 0.0
    for op in ops:
        tracer.op = op.index
        tracer.install()
        try:
            latency, result = runner.run(op)
        finally:
            tracer.uninstall()
        traced_s += latency
        if result is not None:
            runner.check(op, result)
        untraced_s += runner.run_and_check([op])[0]

    metrics = tracing.layer_metrics(
        tracer.spans, {op.index: op.kind for op in ops}, sum(op.rows for op in ops)
    )
    metrics["cli.import_modules"] = import_modules
    metrics["trace.ops"] = len(ops)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    tracer.dump(spans_path)
    report.append(f"traced {len(ops)} ops, {len(tracer.spans)} spans -> {spans_path}")
    return metrics


def _units():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def self_check(ctx, seed):
    """Show that every check passes on a real output and fails on a corrupted one."""
    runner = Runner()
    misjudged = 0
    for name, workload in WORKLOADS.items():
        ops = [workload.op(ctx, seed, 3, i) for i in range(len(workload.slots))]
        for op in ops:
            _, result = runner.run(op)
            if result is None:
                print(f"{name} {op.kind}: op failed: {runner.failures[-1][2]}")
                misjudged += 1
                continue
            clean = check_message(op, result)
            corrupted = check_message(op, op.corrupt(result))
            misjudged += clean is not None or corrupted is None
            print(f"{name:17s} {op.kind:16s} clean: {clean or 'passes'}; corrupted: {corrupted or 'PASSES'}")
    print(f"self-check: {misjudged} of {runner.attempted} ops misjudged")
    return 0 if misjudged == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="show every check rejects a corrupted output")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    for needed in (SRC / "uniflux" / "cli.py", TESTS / "oracles.py", EXAMPLE_PROGRAM):
        if not needed.is_file():
            _fail(f"{needed.relative_to(ROOT)} not found; run from a uniflux source checkout")
    sys.path[:0] = [str(SRC), str(TESTS)]
    import oracles

    # Importing here also writes the bytecode that the fresh interpreters load.
    modules = {name: importlib.import_module(f"uniflux.{name}") for name in MODULES}

    out_dir = ROOT / ".bench_build" / "perfbench"
    workdir = out_dir / f"{args.workload or 'self-check'}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(types.SimpleNamespace(**modules), oracles, workdir, EXAMPLE_PROGRAM)
    try:
        if args.self_check:
            return self_check(ctx, args.seed)
        workload = WORKLOADS[args.workload]
        runner = Runner()
        report = []
        if args.trace:
            spans_path = out_dir / f"spans-{args.workload}-{args.seed}.json"
            raw = _traced(workload, ctx, runner, args.seed, args.seconds, modules, report, spans_path)
            units = _units()
            metrics = {name: (raw[name], units[name]) for name in units}
        else:
            metrics = _untraced(workload, ctx, runner, args.seed, args.seconds, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"machine": _machine(args.seed)}))
    for line in report:
        print(line)
    for index, kind, message in runner.failures:
        print(f"FAILED op {index} ({kind}): {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
