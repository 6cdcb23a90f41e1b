"""The polyfam benchmark: one closed-loop client, one op at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the library is imported from `src/`.
POLYFAM_THREADS is left as the caller set it (normally unset) and recorded.

Workloads (an "op" is defined per workload):

  verify-cli    sequential `python -m polyfam verify --seed N` processes that
                cycle through the default, `--errata` and `--mode verbatim`
                argv; an op is one process.
  sweep-deep    in-process `sweep()` over all 31 identities with
                GridSpec(**SWEEP_GRID), one fresh sweep seed per op;
                ops_per_s counts the reports of the sweeps.
  routes-large  all twelve public routes at one seeded point (n=40, k=2,
                nonzero rationals of height <= 20), in ROUTE_ORDER; an op is
                one point.

The amount of work is fixed by --seconds: a run makes
round(seconds * NOMINAL_OPS_PER_S) ops (at least MIN_OPS), where the rates
were measured on a 2-core Xeon with Python 3.11 when the benchmark was
defined. A run therefore lasts about --seconds there, and every commit does
the same work for the same arguments. Caches that users fill once per process
(classical tables, classical sweep points) are filled by one untimed warm-up
before the ops.

Every op's output is checked; a failed op counts in `failed`, never in the
timings' favour. With --trace 0 the last line carries the end-to-end metrics
(setup_s: median in-child time of `import polyfam` in fresh interpreters;
ops_per_s: ops (sweep-deep: reports) over the seconds spent in them; peak_rss_mb: of this
process, or of the largest `verify` child). Their times are in reference
seconds (reference.py): each wall time is scaled by the host's speed,
measured by a fixed load timed beside the ops (in this process after each
in-process op, in a fresh child after each `verify` process, and in each
import child after its import). On a shared host whose speed drifts by a
quarter over minutes this keeps a run's figures comparable with another
run's; the wall-clock values and the scale go to `#` lines. fail_ratio,
op_p50_s and op_tail_s (the highest percentile with ten samples beyond it,
printed only when that lies above the median, i.e. with more than 20 ops)
go to `#` lines as well: the median op time spreads too much to gate on.

With --trace 1 the last line carries the per-layer metrics of a traced pass
over the same ops (tracing.py wraps the layers from outside), plus the
tracing overhead against an untraced run of the same arguments made first in
a child. Counts and times are per op unless named otherwise. The cli layer
is probed alike on every workload (bare interpreter, import, and each verify
argv as a process and through cli.main in a fresh child); routes-large
bypasses the harness, so its harness.* come from one traced default verify.
What each layer should move:

  cli.*       setup_s, and ops_per_s and op_p50_s on verify-cli
  harness.*   ops_per_s on verify-cli and sweep-deep, nothing on routes-large
  route.*     ops_per_s and op_p50_s on routes-large (route.<name>_s is the
              mean seconds per call; ROUTE_ORDER is fixed because later
              routes hit tables the earlier ones cached)
  stirling.*  ops_per_s on sweep-deep and routes-large, and on verify-cli at
              most by its share; build_s.* are cold builds, each in a fresh
              process with fresh parameters, cross-checked by closed forms
  algebra.*   ops_per_s on routes-large and sweep-deep

Run metadata goes to a `# meta` line, never into a metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from reference import host_scale, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBE = HERE / "probe.py"

NOMINAL_OPS_PER_S = {"verify-cli": 1.2, "sweep-deep": 0.9, "routes-large": 1.15}
MIN_OPS = {"verify-cli": 3, "sweep-deep": 2, "routes-large": 2}
WORKLOADS = tuple(NOMINAL_OPS_PER_S)

VERIFY_VARIANTS = (  # (name, extra argv, expected exit code)
    ("default", [], 0),
    ("errata", ["--errata"], 0),
    ("verbatim", ["--mode", "verbatim"], 1),
)
SWEEP_GRID = {"n_max": 14, "k_max": 2, "points": 3, "series_order": 6, "bound": 20}
ROUTE_N, ROUTE_K, HEIGHT = 40, 2, 20
FIRST_ROUTES = (
    "mp_first_def",
    "mp_first_closed",
    "mp_first_noncentral",
    "mp_first_via_polycauchy",
    "mp_first_bell",
)
SECOND_ROUTES = ("mp_second_def", "mp_second_closed", "mp_second_lah")
ROUTE_ORDER = FIRST_ROUTES + SECOND_ROUTES + (
    "mp_bernoulli",
    "mp_poly_first",
    "mp_poly_second",
    "mp_bernoulli_poly",
)
BUILD_TABLES = ("comtet-1", "comtet-2", "lah")
BUILD_SIZES = (20, 40, 80)
SETUP_IMPORTS = 15
OP_TIMEOUT_S = 150


@dataclass
class Ops:
    """Timings and outcomes of one pass over a workload's ops."""

    times: list = field(default_factory=list)
    done: int = 0  # what ops_per_s counts: ops, or reports on sweep-deep
    failed: int = 0
    problems: list = field(default_factory=list)
    reference: list = field(default_factory=list)  # reference_seconds() beside the ops

    def record(self, seconds: float, problem, done: int = 1) -> None:
        self.times.append(seconds)
        self.done += done
        if problem:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"op {len(self.times) - 1}: {problem}")


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(argv: list, timeout: float = OP_TIMEOUT_S):
    """Run one child to completion (it is killed and reaped on timeout)."""
    return subprocess.run(
        [sys.executable] + argv,
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        timeout=timeout,
    )


def probe(*args: str) -> dict:
    proc = run_child([str(PROBE), *args])
    if proc.returncode != 0:
        raise RuntimeError(
            f"probe {args[0]} exited {proc.returncode}: {proc.stderr.decode()[-2000:]}"
        )
    return json.loads(proc.stdout.decode().splitlines()[-1])


def import_seconds(count: int, reference: list | None = None) -> float:
    """Median wall time of `import polyfam` in fresh interpreters. One extra
    untimed import first writes the bytecode cache, as an install would.
    Each child's host-speed reference is appended to `reference`."""
    samples = []
    for i in range(count + 1):
        result = probe("import")
        if Path(result["file"]).resolve().parent.parent != SRC:
            raise RuntimeError(f"polyfam imported from {result['file']}, not {SRC}")
        if i:
            samples.append(result["import_s"])
            if reference is not None:
                reference.append(result["reference_s"])
    return statistics.median(samples)


def interpreter_seconds(count: int) -> float:
    samples = []
    for _ in range(count):
        start = perf_counter()
        proc = run_child(["-c", "pass"])
        samples.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError("bare interpreter failed to start")
    return statistics.median(samples)


def outside_trace(tracer):
    """Context in which the benchmark's own work (warm-up, cross-checks) is
    kept out of the trace."""
    return tracer.paused() if tracer is not None else nullcontext()


def import_in_process():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import polyfam

    if Path(polyfam.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"polyfam imported from {polyfam.__file__}, not {SRC}")
    return polyfam


# ---------------------------------------------------------------------------
# verify-cli
# ---------------------------------------------------------------------------


class VerifyChecker:
    """Checks one `verify` process's exit code, stderr and stdout.

    At seed 0 stdout must match the recorded golden sha256; at every seed one
    argv's stdout must be byte-identical across processes, and the default and
    `--mode verbatim` runs must print the same report stream.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.golden = json.loads((HERE / "golden.json").read_text())["seed0_sha256"]
        self.seen: dict = {}

    def __call__(self, variant: str, code: int, stdout: bytes, stderr: bytes):
        expected = {name: exit_code for name, _, exit_code in VERIFY_VARIANTS}[variant]
        if b"Traceback" in stderr:
            return "traceback: " + stderr.decode(errors="replace").strip()[-300:]
        if code != expected:
            return f"exit code {code}, expected {expected}"
        digest = hashlib.sha256(stdout).hexdigest()
        if self.seed == 0 and digest != self.golden[variant]:
            return f"{variant} stdout differs from the seed-0 golden"
        stream = "errata" if variant == "errata" else "reports"
        if stream in self.seen:
            if self.seen[stream] != digest:
                return f"{variant} stdout differs from an earlier process"
            return None
        self.seen[stream] = digest
        try:
            return _check_errata(stdout) if stream == "errata" else _check_reports(stdout)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparsable {variant} stdout: {exc!r}"


def _check_reports(stdout: bytes):
    lines = stdout.decode().splitlines()
    if not lines:
        return "empty report stream"
    for line in lines:
        record = json.loads(line)
        if record["corrected"] not in ("PASS", "NA") or record["verbatim"] not in (
            "PASS",
            "FAIL",
            "NA",
        ):
            return f"bad verdict in {line[:200]}"
    return None


def _check_errata(stdout: bytes):
    ledger = json.loads(stdout)
    entries = ledger["entries"]
    if not entries:
        return "errata ledger is empty"
    for entry in entries:
        if entry["verbatim_failures"] < 1 or not entry["identity"]:
            return f"bad errata entry {entry.get('identity')!r}"
    return None


def verify_argv(op: int, seed: int):
    name, extra, _ = VERIFY_VARIANTS[op % len(VERIFY_VARIANTS)]
    return name, ["verify", "--seed", str(seed)] + extra


def verify_process(seed: int, op: int, check: VerifyChecker, ops: Ops) -> None:
    """One `python -m polyfam verify` process, timed and checked."""
    variant, argv = verify_argv(op, seed)
    start = perf_counter()
    proc = run_child(["-m", "polyfam"] + argv)
    seconds = perf_counter() - start
    ops.record(seconds, check(variant, proc.returncode, proc.stdout, proc.stderr))


def verify_in_child(command: str, seed: int, op: int, check: VerifyChecker, ops: Ops):
    """One verify through cli.main inside a fresh probe child; the probe's
    result, or None when the child failed."""
    variant, argv = verify_argv(op, seed)
    start = perf_counter()
    proc = run_child([str(PROBE), command] + argv)
    seconds = perf_counter() - start
    if proc.returncode != 0:
        ops.record(seconds, check(variant, proc.returncode, b"", proc.stderr))
        return None
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    ops.record(seconds, check(variant, result["exit"], result["stdout"].encode(), proc.stderr))
    return result


def verify_cli(seed: int, n_ops: int) -> Ops:
    check, ops = VerifyChecker(seed), Ops()
    for op in range(n_ops):
        verify_process(seed, op, check, ops)
        # Sampled in a child started like the op's: timed here, just after
        # this process wakes from waiting on a child, the reference reads slow.
        ops.reference.append(probe("reference")["reference_s"])
    return ops


def verify_cli_traced(seed: int, n_ops: int):
    """The same ops, each a fresh process running cli.main under the tracer."""
    from tracing import merge

    check, ops = VerifyChecker(seed), Ops()
    results = [verify_in_child("traced-main", seed, op, check, ops) for op in range(n_ops)]
    return ops, merge([r["trace"] for r in results if r is not None])


# ---------------------------------------------------------------------------
# sweep-deep
# ---------------------------------------------------------------------------


def sweep_seeds(seed: int, n_ops: int) -> list:
    rng = random.Random(f"sweep-deep:{seed}")
    return [rng.randrange(2**31) for _ in range(n_ops)]


def sweep_deep(seed: int, n_ops: int, tracer=None) -> Ops:
    polyfam = import_in_process()
    from polyfam.harness import FAIL, PASS, GridSpec

    grid = GridSpec(**SWEEP_GRID)
    catalog = list(polyfam.IDENTITY_IDS)
    with outside_trace(tracer):  # the classical points, shared by every seed
        polyfam.sweep(grid=GridSpec(**{**SWEEP_GRID, "points": 0}))
    ops, sizes = Ops(), set()
    for sweep_seed in sweep_seeds(seed, n_ops):
        ops.reference.append(reference_seconds())  # a sweep is long: sample both ends
        start = perf_counter()
        try:
            reports = polyfam.sweep(grid=grid, seed=sweep_seed)
        except Exception:
            ops.record(perf_counter() - start, traceback.format_exc(limit=3), done=0)
            continue
        seconds = perf_counter() - start
        sizes.add(len(reports))
        ids = [r.identity for r in reports]
        passed = {r.identity for r in reports if r.corrected == PASS}
        problem = None
        if any(r.corrected == FAIL for r in reports):
            problem = "a corrected-column FAIL"
        elif set(ids) != set(catalog) or ids != sorted(ids, key=catalog.index):
            problem = "reports do not cover the catalog in catalog order"
        elif passed != set(catalog):
            problem = f"no PASS for {sorted(set(catalog) - passed)}"
        elif len(sizes) > 1:
            problem = "report count changed between sweeps of one grid"
        ops.record(seconds, problem, done=len(reports))
        ops.reference.append(reference_seconds())
    return ops


# ---------------------------------------------------------------------------
# routes-large
# ---------------------------------------------------------------------------


def nonzero_rational(rng: random.Random) -> Fraction:
    while True:
        value = Fraction(rng.randint(-HEIGHT, HEIGHT), rng.randint(1, HEIGHT))
        if value:
            return value


def route_points(polyfam, seed: int, count: int) -> list:
    rng = random.Random(f"routes-large:{seed}")
    return [
        polyfam.FamilyPoint(
            ROUTE_N,
            ROUTE_K,
            tuple(nonzero_rational(rng) for _ in range(ROUTE_N)),
            tuple(nonzero_rational(rng) for _ in range(ROUTE_K)),
        )
        for _ in range(count)
    ]


def check_routes(polyfam, point, values: dict):
    first, second = values["mp_first_def"], values["mp_second_def"]
    for name in FIRST_ROUTES:
        if values[name] != first:
            return f"{name} != mp_first_def"
    for name in SECOND_ROUTES:
        if values[name] != second:
            return f"{name} != mp_second_def"
    for poly, number in (
        ("mp_poly_first", "mp_first_def"),
        ("mp_poly_second", "mp_second_def"),
        ("mp_bernoulli_poly", "mp_bernoulli"),
    ):
        if values[poly](0) != values[number]:
            return f"{poly} at z=0 != {number}"
    vector = [
        polyfam.mp_first_def(polyfam.FamilyPoint(j, point.k, point.alpha, point.lengths))
        for j in range(point.n + 1)
    ]
    if polyfam.bernoulli_from_first(point.n, point.alpha, vector) != values["mp_bernoulli"]:
        return "mp_bernoulli != bernoulli_from_first(mp_first_def vector)"
    return None


def routes_large(seed: int, n_ops: int, tracer=None) -> Ops:
    polyfam = import_in_process()
    warm_up, *points = route_points(polyfam, seed, n_ops + 1)
    with outside_trace(tracer):
        for name in ROUTE_ORDER:
            getattr(polyfam, name)(warm_up)
    ops = Ops()
    for point in points:
        values = {}
        start = perf_counter()
        try:
            for name in ROUTE_ORDER:
                values[name] = getattr(polyfam, name)(point)
        except Exception:
            ops.record(perf_counter() - start, traceback.format_exc(limit=3))
            continue
        seconds = perf_counter() - start
        with outside_trace(tracer):
            problem = check_routes(polyfam, point, values)
        ops.record(seconds, problem)
        ops.reference.append(reference_seconds())
    return ops


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def op_count(workload: str, seconds: int) -> int:
    n = max(MIN_OPS[workload], round(seconds * NOMINAL_OPS_PER_S[workload]))
    if workload == "verify-cli":  # whole cycles, so each argv runs equally often
        n = -(-n // len(VERIFY_VARIANTS)) * len(VERIFY_VARIANTS)
    return n


def tail(times: list):
    """The highest percentile with at least ten samples beyond it, when that
    percentile lies above the median; else None."""
    n = len(times)
    if n <= 20:
        return None
    return {"value": sorted(times)[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def run_untraced(workload: str, seed: int, seconds: int):
    setup_reference = []
    setup_wall_s = import_seconds(SETUP_IMPORTS, setup_reference)
    n_ops = op_count(workload, seconds)
    if workload == "verify-cli":
        ops = verify_cli(seed, n_ops)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        ops = {"sweep-deep": sweep_deep, "routes-large": routes_large}[workload](seed, n_ops)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = host_scale(ops.reference)
    metrics = {
        "setup_s": (setup_wall_s * host_scale(setup_reference), "s"),
        "ops_per_s": (ops.done / (sum(ops.times) * scale), "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    extra = {
        "fail_ratio": ops.failed / len(ops.times),
        "op_p50_s": statistics.median(ops.times) * scale,
        "op_tail_s": tail([t * scale for t in ops.times]),
        "op_seconds": sum(ops.times),
        "wall_setup_s": setup_wall_s,
        "wall_ops_per_s": ops.done / sum(ops.times),
        "host_scale": scale,
        "setup_host_scale": host_scale(setup_reference),
    }
    return ops, metrics, extra


def per_op(value: float, n_ops: int) -> float:
    return value / n_ops if n_ops else 0.0


def mean_call(stats: dict, name: str) -> float:
    calls = stats["calls"].get(name, 0)
    return stats["incl_s"].get(name, 0.0) / calls if calls else 0.0


def harness_metrics(stats: dict, n_ops: int, catalog) -> dict:
    verdicts = stats["verdicts"]
    reports = sum(verdicts.values())
    m = {
        "harness.sweep_s": (mean_call(stats, "sweep"), "s"),
        "harness.reports": (per_op(reports, n_ops), "count"),
        "harness.fail_count": (verdicts.get("FAIL", 0), "count"),
        "harness.na_ratio": (verdicts.get("NA", 0) / reports if reports else 0.0, "ratio"),
    }
    for identity in catalog:
        m[f"harness.identity_s.{identity}"] = (
            per_op(stats["identity_s"].get(identity, 0.0), n_ops),
            "s",
        )
    return m


def layer_metrics(stats: dict, n_ops: int, traced_s: float) -> dict:
    """route, stirling and algebra metrics of a traced pass."""
    from tracing import POLY, SERIES, STIRLING

    calls, self_s = stats["calls"], stats["self_s"]
    route_s = {name: mean_call(stats, name) for name in ROUTE_ORDER}
    m = {f"route.{name}_s": (route_s[name], "s") for name in ROUTE_ORDER}
    base = route_s["mp_first_def"]
    m["route.slowest_over_def"] = (max(route_s.values()) / base if base else 0.0, "ratio")
    entries = stats["entries"].get(STIRLING, 0)
    distinct = stats["distinct_requests"]
    poly_calls = calls.get("Polynomial.__mul__", 0) + calls.get("Polynomial.from_roots", 0)
    series_calls = sum(
        calls.get(f"TruncatedSeries.{name}", 0)
        for name in ("__mul__", "__pow__", "compose", "exp", "log")
    )
    m.update(
        {
            "stirling.self_s": (per_op(self_s.get(STIRLING, 0.0), n_ops), "s"),
            "stirling.share": (self_s.get(STIRLING, 0.0) / traced_s, "ratio"),
            "stirling.calls": (per_op(entries, n_ops), "count"),
            "stirling.rebuild_ratio": (entries / distinct if distinct else 0.0, "ratio"),
            "algebra.poly_calls": (per_op(poly_calls, n_ops), "count"),
            "algebra.poly_s": (per_op(self_s.get(POLY, 0.0), n_ops), "s"),
            "algebra.series_calls": (per_op(series_calls, n_ops), "count"),
            "algebra.series_s": (per_op(self_s.get(SERIES, 0.0), n_ops), "s"),
            "algebra.value_bits_max": (stats["value_bits_max"], "count"),
        }
    )
    return m


def cli_metrics(seed: int, probes: Ops) -> dict:
    """The CLI layer, probed the same way on every workload: a bare
    interpreter, the import, and each verify argv once as a process and once
    through cli.main in a fresh child."""
    check, processes, mains = VerifyChecker(seed), [], []
    for op in range(len(VERIFY_VARIANTS)):
        verify_process(seed, op, check, probes)
        processes.append(probes.times[-1])
        result = verify_in_child("main", seed, op, check, probes)
        if result is not None:
            mains.append(result["main_s"])
    return {
        "cli.interpreter_s": (interpreter_seconds(SETUP_IMPORTS), "s"),
        "cli.import_s": (import_seconds(SETUP_IMPORTS), "s"),
        "cli.main_s": (statistics.median(mains) if mains else 0.0, "s"),
        "cli.process_s": (statistics.median(processes), "s"),
    }


def build_metrics(seed: int, probes: Ops) -> dict:
    """Cold triangle builds, each in a fresh process with fresh parameters."""
    rng = random.Random(f"build:{seed}")
    metrics = {}
    for table in BUILD_TABLES:
        for n in BUILD_SIZES:
            args = [table, str(n)]
            if table != "lah":
                alpha: list = []
                while len(alpha) < n + 1:  # distinct, for the explicit form
                    value = nonzero_rational(rng)
                    if value not in alpha:
                        alpha.append(value)
                args.append(",".join(str(a) for a in alpha))
            result = probe("build", *args)
            probes.record(result["build_s"], None if result["ok"] else f"{table} n={n} is wrong")
            metrics[f"stirling.build_s.{table}.n{n}"] = (result["build_s"], "s")
    return metrics


def run_traced(workload: str, seed: int, seconds: int):
    from tracing import Tracer, merge

    polyfam = import_in_process()
    threads = os.environ.get("POLYFAM_THREADS")
    if threads not in (None, "1"):
        raise RuntimeError("the tracer needs one thread; unset POLYFAM_THREADS")
    reference = run_child(
        [str(Path(__file__)), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        timeout=170,
    )
    if reference.returncode != 0:
        raise RuntimeError(f"untraced reference run failed: {reference.stderr.decode()[-2000:]}")
    lines = reference.stdout.decode().splitlines()
    untraced = json.loads(lines[-1])
    untraced_s = next(
        float(line.split("=", 1)[1]) for line in lines if line.startswith("# op_seconds =")
    )

    n_ops = op_count(workload, seconds)
    if workload == "verify-cli":
        ops, stats = verify_cli_traced(seed, n_ops)
    else:
        tracer = Tracer()
        tracer.install()
        ops = {"sweep-deep": sweep_deep, "routes-large": routes_large}[workload](
            seed, n_ops, tracer
        )
        stats = tracer.snapshot()
    traced_s = sum(ops.times)

    probes = Ops()
    metrics = cli_metrics(seed, probes)
    harness_stats, harness_ops = stats, len(ops.times)
    if not stats["calls"].get("sweep"):
        # The workload bypasses the harness: measure that layer on one traced
        # default verify instead, so its metrics still read a real time.
        result = verify_in_child("traced-main", seed, 0, VerifyChecker(seed), probes)
        harness_stats, harness_ops = merge([result["trace"]] if result else []), 1
    metrics.update(harness_metrics(harness_stats, harness_ops, polyfam.IDENTITY_IDS))
    metrics.update(layer_metrics(stats, len(ops.times), traced_s))
    metrics.update(build_metrics(seed, probes))
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    ops.problems += probes.problems
    attempted = len(ops.times) + untraced["attempted"] + len(probes.times)
    failed = ops.failed + untraced["failed"] + probes.failed
    extra = {"fail_ratio": failed / attempted, "untraced_op_seconds": untraced_s}
    return ops, metrics, extra, attempted, failed


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def metadata(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    src_lines = sum(
        len(path.read_bytes().splitlines()) for path in sorted((SRC / "polyfam").glob("*.py"))
    )
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": op_count(args.workload, args.seconds),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "polyfam_threads": os.environ.get("POLYFAM_THREADS", "unset"),
        "src_lines": src_lines,
    }
    if args.workload == "sweep-deep":
        meta["grid"] = SWEEP_GRID
    if args.workload == "routes-large":
        meta["route_order"] = list(ROUTE_ORDER)
    return meta


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polyfam" / "__init__.py").is_file():
        print(f"no polyfam sources under {SRC}; run from a polyfam checkout", file=sys.stderr)
        return 2
    meta = metadata(args)
    if args.trace:
        ops, metrics, extra, attempted, failed = run_traced(args.workload, args.seed, args.seconds)
    else:
        ops, metrics, extra = run_untraced(args.workload, args.seed, args.seconds)
        attempted, failed = len(ops.times), ops.failed
    for problem in ops.problems:
        print(f"# FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    for name, value in extra.items():
        print(f"# {name} = {json.dumps(value)}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
