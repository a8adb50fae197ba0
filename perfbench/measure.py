"""Timing loops, spans and child-process probes behind perfbench/run.py.

End-to-end numbers come from ``run_lib`` and ``run_cli``, which record no
spans and scale each sample by a calibration control (see calibration.py).
``run_layers`` is the traced run: it wraps each public entry point of a
layer in a span, keeps the spans in memory, and derives the per-layer
numbers from them.  Every output produced in a timed region is checked
after the region ends.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import math
import operator
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import calibration
import checks
from program import ROOT, SRC
from workloads import Inputs, wwl2_operands

ns = time.perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 60
SETUP_RUNS = 15
IMPORT_RUNS = 5
INTERP_RUNS = 7
CLI_WARMUP = 2
LIB_CHUNK = {"lib-small": 1024, "lib-large": 16}
LATENCY_CYCLES = 31  # per-call latencies kept per pair; bounds the memory they take
CLI_CONTROL_WINDOW = 5
# traced run: pairs per layer round, CLI invocations per round, span budget
TRACE_POOL = {"lib-small": 1024, "lib-large": 48, "cli-oneshot": 512}
CLI_ITEMS = 64
MAX_SPANS = 150_000  # for the layer rounds
CLI_MAX_ROUNDS = 200
# the traced run's layer rounds end by this share of --seconds, and its
# in-process CLI rounds by the sum of both shares
TRACED_SHARE, CLI_SHARE = 0.75, 0.15
IMPORT_CODE = (
    "import time; t = time.perf_counter_ns(); import normgcd.cli; "
    "print(time.perf_counter_ns() - t)"
)
IMPORT_MODULES = {
    "import.normgcd_ms": "normgcd",
    "import.core_ms": "normgcd.core",
    "import.bench_ms": "normgcd.bench",
    "import.oracle_ms": "normgcd.oracle",
}


@dataclass
class Metric:
    value: float
    unit: str
    n: int  # samples behind the value


class Tally:
    """Checks every output of one layer and counts failures.

    An output equal to one that already passed for the same key is not
    checked again, so repeated rounds cost a comparison each.
    """

    def __init__(self, name: str, check):
        self.name = name
        self.check = check
        self.passed: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, items, outs) -> None:
        passed = self.passed
        for (key, *args), out in zip(items, outs, strict=True):
            if key in passed and passed[key] == out:
                continue
            problem = self.check(*args, out)
            if problem is None:
                passed[key] = out
            else:
                self.record(f"{args}: {problem}")
        self.attempted += len(outs)

    def record(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)


class Spans:
    """Spans kept in memory as (name, key, parent, start_ns, end_ns).

    A span's id is its index; ``key`` is the pair or invocation id, None
    for the spans that group them.
    """

    def __init__(self):
        self.rows: list[tuple] = []

    def open(self, name: str, parent: int | None) -> int:
        self.rows.append((name, None, parent, ns(), None))
        return len(self.rows) - 1

    def close(self, sid: int) -> int:
        name, key, parent, start, _ = self.rows[sid]
        end = ns()
        self.rows[sid] = (name, key, parent, start, end)
        return end - start

    def write(self, path: str, header: dict) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, (name, key, parent, start, end) in enumerate(self.rows):
                fh.write(json.dumps({"id": sid, "name": name, "key": key,
                                     "parent": parent, "start_ns": start,
                                     "end_ns": end}) + "\n")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def timer_overhead_ns(n: int = 20_000) -> float:
    """Median cost of one perf_counter_ns pair, as it sits around a timed call."""
    d = []
    for _ in range(n):
        t0 = ns()
        t1 = ns()
        d.append(t1 - t0)
    return statistics.median(d)


def environment(timer_ns: float) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "implementation": platform.python_implementation(),
        "version": platform.python_version(),
        "platform": platform.platform(),
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "timer": "time.perf_counter_ns",
        "timer_overhead_ns": timer_ns,
        "timer_overhead_subtracted": "from each per-call latency and span; "
        "not from whole-batch times",
        "cpu_pinning": "none: the harness neither pins CPUs nor fixes their frequency",
    }


def spawn(args: list[str], env: dict) -> tuple[int, int, str, int]:
    """Run ``python args`` to exit: (wall ns, exit code, stdout+stderr, peak RSS KiB)."""
    t0 = ns()
    with subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, env=env, cwd=ROOT) as p:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        watchdog.start()
        try:
            out = p.stdout.read()
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            watchdog.cancel()
        t1 = ns()
        p.returncode = os.waitstatus_to_exitcode(status)
    return t1 - t0, p.returncode, out.decode("utf-8", "replace"), usage.ru_maxrss


def setup_probes(workload: str, seed: int, env: dict, tally: Tally) -> list[float]:
    """Calibrated set-up seconds of SETUP_RUNS fresh interpreters.

    Each probe (setup_probe.py) times its own set-up, then runs the
    calibration kernel in the same process.  A first, uncounted probe
    warms the file cache.
    """
    script = os.path.join(HERE, "setup_probe.py")
    spawn([script, workload, str(seed)], env)
    samples = []
    for _ in range(SETUP_RUNS):
        _, rc, out, _ = spawn([script, workload, str(seed)], env)
        tally.attempted += 1
        try:
            if rc != 0:
                raise ValueError(f"exit code {rc}")
            seconds, kernel = out.split()[-2:]
            samples.append(float(seconds) * calibration.REF_NS["setup"] / int(kernel))
        except ValueError as exc:
            tally.record(f"setup probe: {exc}: {out[-300:]!r}")
    return samples


def _quantiles(values: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(values, n=10)
    return q[4], q[8]


def run_lib(prog, inputs: Inputs, seconds: float, timer_ns: float):
    """ext_gcd over the pool, chunk by chunk, in whole cycles until ``seconds`` pass.

    Each chunk is timed twice in turn: as one batch inside a single timer
    pair, then call by call (timer overhead subtracted).  Both are followed
    by the workload's calibration control, which scales them.  A cycle
    covers the whole pool both ways.  pairs_per_s is the median over
    cycles.  pair_p50_us and pair_p90_us are percentiles over the pool of
    each pair's median latency in the first LATENCY_CYCLES cycles: the
    spread of the inputs, not of the host's noise.  Also returns the
    uncalibrated batch rate and the median control time.
    """
    f = prog.ext_gcd
    ref = calibration.REF_NS[inputs.workload]
    pairs = inputs.pairs
    items = [(k, a, b) for k, (a, b) in enumerate(pairs)]
    size = LIB_CHUNK[inputs.workload]
    chunks = [(lo, pairs[lo:lo + size], items[lo:lo + size]) for lo in range(0, len(pairs), size)]
    tally = Tally("core.ext_gcd", checks.check_ext_gcd)
    tally.add(items, [f(a, b) for a, b in pairs])  # warm-up
    rates, raw_rates, controls = [], [], []
    lat = [[] for _ in pairs]  # calibrated ns of each pair's calls
    deadline = ns() + int(seconds * 1e9)
    while not rates or ns() < deadline:
        batch_ns = raw_ns = 0.0
        for lo, part, part_items in chunks:
            t0 = ns()
            out = [f(a, b) for a, b in part]
            t1 = ns()
            controls.append(calibration.descent_ns(inputs.workload))
            batch_ns += (t1 - t0) * ref / controls[-1]
            raw_ns += t1 - t0
            tally.add(part_items, out)
            out = []
            durations = []
            for a, b in part:
                t0 = ns()
                r = f(a, b)
                t1 = ns()
                durations.append(t1 - t0)
                out.append(r)
            controls.append(calibration.descent_ns(inputs.workload))
            if len(rates) < LATENCY_CYCLES:
                scale = ref / controls[-1]
                for i, d in enumerate(durations, lo):
                    lat[i].append((d - timer_ns) * scale)
            tally.add(part_items, out)
        rates.append(len(pairs) * 1e9 / batch_ns)
        raw_rates.append(len(pairs) * 1e9 / raw_ns)
    calls = len(rates) * len(pairs)
    p50, p90 = _quantiles([statistics.median(x) for x in lat])
    timed = min(len(rates), LATENCY_CYCLES) * len(pairs)
    metrics = {
        "pairs_per_s": Metric(statistics.median(rates), "1/s", calls),
        "pair_p50_us": Metric(p50 / 1e3, "us", timed),
        "pair_p90_us": Metric(p90 / 1e3, "us", timed),
        "peak_rss_mib": Metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                               "MiB", 1),
    }
    raw = {
        "raw.pairs_per_s": Metric(statistics.median(raw_rates), "1/s", calls),
        "calibration.descent_ns": Metric(statistics.median(controls), "ns", len(controls)),
    }
    return metrics, raw, [tally]


def _check_cli_run(a: int, b: int, canonical: bool, out) -> str | None:
    return checks.check_cli(a, b, canonical, *out)


def run_cli(inputs: Inputs, seconds: float, env: dict):
    """Closed loop, one client: `python -m normgcd extgcd ...`, one process at a time.

    Each sample is one process from spawn to exit, followed by a bare
    `python -c pass` as its calibration control; the next process starts
    after both have been reaped.  A sample is scaled by the median of the
    CLI_CONTROL_WINDOW controls around it, which follows the host's drift
    without adding each control's own jitter.  pairs_per_s is samples over
    the sum of their calibrated times.
    """
    items = [(k, a, b, c) for k, ((a, b), c) in enumerate(zip(inputs.pairs, inputs.canonical))]
    tally = Tally("cli.process", _check_cli_run)
    for k, a, b, c in items[:CLI_WARMUP]:
        _, rc, out, _ = spawn(["-m", "normgcd", *inputs.argvs[k]], env)
        tally.add([items[k]], [(rc, out)])
    spawn(["-c", "pass"], env)
    raw, controls, rss = [], [], []
    attempts = 0
    deadline = ns() + int(seconds * 1e9)
    while attempts < 2 or ns() < deadline:
        item = items[attempts % len(items)]
        attempts += 1
        wall, rc, out, maxrss = spawn(["-m", "normgcd", *inputs.argvs[item[0]]], env)
        tally.add([item], [(rc, out)])
        control, crc, cout, _ = spawn(["-c", "pass"], env)
        if crc != 0:
            tally.record(f"python -c pass: exit code {crc}: {cout[-300:]!r}")
            continue
        raw.append(wall / 1e3)
        controls.append(control)
        rss.append(maxrss / 1024)
    n = len(raw)
    if n < 2:
        raise RuntimeError(f"bare interpreter failed to start: {tally.problems}")
    half = CLI_CONTROL_WINDOW // 2
    ref = calibration.REF_NS["cli-oneshot"]
    walls = [w * ref / statistics.median(controls[max(0, i - half):i + half + 1])
             for i, w in enumerate(raw)]
    p50, p90 = _quantiles(walls)
    metrics = {
        "pairs_per_s": Metric(n * 1e6 / sum(walls), "1/s", n),
        "pair_p50_us": Metric(p50, "us", n),
        "pair_p90_us": Metric(p90, "us", n),
        "peak_rss_mib": Metric(statistics.median(rss), "MiB", n),
    }
    raw_p50, raw_p90 = _quantiles(raw)
    raw_metrics = {
        "raw.pair_p50_us": Metric(raw_p50, "us", n),
        "raw.pair_p90_us": Metric(raw_p90, "us", n),
        "calibration.interp_ns": Metric(statistics.median(controls), "ns", n),
    }
    return metrics, raw_metrics, [tally]


def _pow_inverse(a: int, b: int):
    g = math.gcd(a, b)
    return g, (pow(b, -1, a) if g == 1 and a else None)


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "normgcd")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def exact_counts(prog, reduced, absolute) -> tuple[dict, list[Tally]]:
    """Descent and baseline iteration counts per key, with no timing.

    wwl2_trace runs on the operands ext_gcd would hand wwl2; its triple is
    checked and its (c1, c2) list gives iterations and halvings.
    """
    trace_tally = Tally("core.wwl2_trace", None)
    mixed_tally = Tally("baselines.mixed_euclid_gcd_steps", None)
    iterations, halvings, mixed = {}, {}, {}
    for k, x, y in reduced:
        trace_tally.attempted += 1
        t, trace = prog.wwl2_trace(x, y)
        problem = checks.check_ext_gcd(x, y, t)
        if problem is None and trace[-1] != (0, t[2]):
            problem = f"trace ends at {trace[-1]}, not (0, g)"
        if problem is None:
            try:
                iterations[k], halvings[k] = checks.descent_counts(trace)
            except ValueError as exc:
                problem = str(exc)
        if problem is not None:
            trace_tally.record(f"{(x, y)}: {problem}")
    for k, x, y in absolute:
        mixed_tally.attempted += 1
        g, n = prog.mixed_euclid_gcd_steps(x, y)
        problem = checks.check_gcd(x, y, g)
        if problem is None:
            mixed[k] = n
        else:
            mixed_tally.record(f"{(x, y)}: {problem}")
    counts = {"iterations": iterations, "halvings": halvings, "mixed_iterations": mixed}
    return counts, [trace_tally, mixed_tally]


def counts_repeat(counts: dict, workload: str, seed: int) -> bool:
    """Compare the counts with those an earlier run of the same source and
    seed left in OUT_DIR; the first run records them."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"counts-{workload}-seed{seed}-{source_digest()}.json")
    text = json.dumps({name: sorted(c.items()) for name, c in counts.items()})
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read() == text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return True


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _rounds_until(deadline: int, max_rounds: int):
    """Round numbers: at least one, then more while time and budget allow."""
    r = 0
    while r == 0 or (r < max_rounds and ns() < deadline):
        yield r
        r += 1


def _untraced(fn, items) -> tuple[int, list]:
    out = []
    t0 = ns()
    for _, a, b in items:
        out.append(fn(a, b))
    return ns() - t0, out


def _traced(fn, items, name: str, parent: int, rows: list) -> list:
    out = []
    add = rows.append
    for key, a, b in items:
        t0 = ns()
        r = fn(a, b)
        t1 = ns()
        add((name, key, parent, t0, t1))
        out.append(r)
    return out


def _import_probe(env: dict) -> tuple[int, dict[str, int], str]:
    """One fresh `import normgcd.cli` under -X importtime.

    Returns the import's wall ns as the child measured it (importtime's own
    logging included), the cumulative
    microseconds of each module the import loaded, and any problem.
    """
    _, rc, out, _ = spawn(["-X", "importtime", "-c", IMPORT_CODE], env)
    cumulative, rest = {}, []
    for line in out.splitlines():
        if line.startswith("import time:"):
            fields = line[len("import time:"):].split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1])
        elif line.strip():
            rest.append(line.strip())
    if rc != 0 or not rest or not rest[-1].isdigit():
        return 0, cumulative, f"import probe exit code {rc}: {out[-300:]!r}"
    return int(rest[-1]), cumulative, None


def run_layers(prog, inputs: Inputs, seconds: float, timer_ns: float, env: dict):
    """The traced run: spans around each layer's public entry points.

    Per key (pair or invocation) a layer's time is the best of its traced
    rounds less the timer overhead; a layer metric is the mean over keys.
    """
    start = ns()
    spans = Spans()
    rows = spans.rows
    root = spans.open("run", None)
    pairs = inputs.pairs[: TRACE_POOL[inputs.workload]]
    items = [(k, a, b) for k, (a, b) in enumerate(pairs)]
    reduced = [(k, *r) for k, (a, b) in enumerate(pairs) if (r := wwl2_operands(a, b))]
    absolute = [(k, abs(a), abs(b)) for k, a, b in items]
    layers = [
        ("core.ext_gcd", prog.ext_gcd, items, checks.check_ext_gcd),
        ("core.wwl2", prog.wwl2, reduced, checks.check_ext_gcd),
        ("floor.math_gcd", math.gcd, items, checks.check_gcd),
        ("floor.pow_inverse", _pow_inverse, items, checks.check_pow_inverse),
        ("oracle.reference_ext_gcd", prog.reference_ext_gcd, items, checks.check_bezout),
        ("baselines.mixed", prog.mixed_euclid_gcd, absolute, checks.check_gcd),
    ]
    tallies = {name: Tally(name, check) for name, _, _, check in layers}

    counts, count_tallies = exact_counts(prog, reduced, absolute)
    repeat = counts_repeat(counts, inputs.workload, inputs.seed)

    ext = prog.ext_gcd
    tallies["core.ext_gcd"].add(items, _untraced(ext, items)[1])  # warm-up
    # each round first runs ext_gcd untraced, right before its traced phase,
    # so the tracing overhead is measured between neighbours in time
    overheads = []
    per_round = sum(len(layer_items) + 1 for _, _, layer_items, _ in layers) + 1
    max_rounds = max(1, MAX_SPANS // per_round)
    sid = spans.open("rounds", root)
    for _ in _rounds_until(start + int(TRACED_SHARE * seconds * 1e9), max_rounds):
        rnd = spans.open("round", sid)
        untraced_ns, out = _untraced(ext, items)
        tallies["core.ext_gcd"].add(items, out)
        for name, fn, layer_items, _ in layers:
            phase = spans.open(name, rnd)
            out = _traced(fn, layer_items, name, phase, rows)
            wall = spans.close(phase)
            if name == "core.ext_gcd":
                overheads.append(wall / untraced_ns - 1)
            tallies[name].add(layer_items, out)
        spans.close(rnd)
    spans.close(sid)

    cli_items = [(k, a, b, inputs.canonical[k]) for k, a, b in items[:CLI_ITEMS]]
    cli_tally = Tally("cli.run", _check_cli_run)
    sid = spans.open("cli", root)
    # runs on into the time the layer rounds left if they hit MAX_SPANS
    for r in _rounds_until(start + int((TRACED_SHARE + CLI_SHARE) * seconds * 1e9),
                           CLI_MAX_ROUNDS):
        outs = []
        for k, a, b, c in cli_items:
            argv = inputs.argvs[k]
            buf = io.StringIO()
            # alternate which call goes first, so that neither always finds
            # the caches the other warmed or the garbage it left
            for call in ("parse", "run") if r % 2 else ("run", "parse"):
                if call == "parse":
                    t0 = ns()
                    prog.build_parser().parse_args(argv)
                    t1 = ns()
                else:
                    with contextlib.redirect_stdout(buf):
                        t2 = ns()
                        rc = prog.run(argv)
                        t3 = ns()
            rows.append(("cli.parse", k, sid, t0, t1))
            rows.append(("cli.run", k, sid, t2, t3))
            outs.append((rc, buf.getvalue()))
        cli_tally.add(cli_items, outs)
    spans.close(sid)

    child_tally = Tally("children", None)
    imports, interp = [], []
    sid = spans.open("children", root)
    spawn(["-c", "pass"], env)  # warm the file cache for both kinds of child
    for i in range(IMPORT_RUNS):
        t0 = ns()
        wall, cumulative, problem = _import_probe(env)
        rows.append(("import.normgcd.cli", i, sid, t0, ns()))
        child_tally.attempted += 1
        if problem:
            child_tally.record(problem)
        else:
            imports.append((wall, cumulative))
    for i in range(INTERP_RUNS):
        t0 = ns()
        wall, rc, out, _ = spawn(["-c", "pass"], env)
        rows.append(("floor.interp_start", i, sid, t0, t0 + wall))
        child_tally.attempted += 1
        if rc != 0:
            child_tally.record(f"python -c pass: exit code {rc}: {out[-300:]!r}")
        else:
            interp.append(wall)
    spans.close(sid)
    spans.close(root)

    durations: dict[str, dict[int, list[float]]] = {}  # per round, in round order
    for name, key, _, start, end in rows:
        if key is not None:
            durations.setdefault(name, {}).setdefault(key, []).append(end - start - timer_ns)
    best = {name: {k: min(d) for k, d in layer.items()} for name, layer in durations.items()}

    def mean_ns(name, keys=None):
        layer = best.get(name, {})
        return _mean(layer[k] for k in (layer if keys is None else keys))

    def paired_ns(minuend, subtrahend, keys):
        """Mean over keys of the median over rounds of minuend - subtrahend.

        Pairing within a round cancels the host's drift; it matters where
        the two terms are large and close.
        """
        return _mean(statistics.median(map(operator.sub, durations[minuend][k],
                                           durations[subtrahend][k])) for k in keys)

    n_traced = len(overheads)
    wkeys = [k for k, _, _ in reduced]
    ext_ns = mean_ns("core.ext_gcd")
    wwl2_ns = mean_ns("core.wwl2", wkeys)
    pow_ns = mean_ns("floor.pow_inverse")
    ref_ns = mean_ns("oracle.reference_ext_gcd")
    its = [counts["iterations"].get(k, 0) for k in wkeys]
    halv = [counts["halvings"].get(k, 0) for k in wkeys]
    its_per_pair = _mean(its)
    cli_keys = [k for k, _, _, _ in cli_items]
    n_cli = sum(len(durations["cli.run"][k]) for k in cli_keys)
    m = {
        "core.ext_gcd_ns": Metric(ext_ns, "ns", n_traced * len(items)),
        "core.wwl2_ns": Metric(wwl2_ns, "ns", n_traced * len(wkeys)),
        "core.reduce_ns": Metric(paired_ns("core.ext_gcd", "core.wwl2", wkeys), "ns",
                                 n_traced * len(wkeys)),
        "core.ns_per_iteration": Metric(wwl2_ns / its_per_pair if its_per_pair else 0.0,
                                        "ns", n_traced * len(wkeys)),
        "core.iterations_per_pair": Metric(its_per_pair, "count", len(wkeys)),
        "core.halvings_per_pair": Metric(_mean(halv), "count", len(wkeys)),
        "core.halvings_per_iteration": Metric(sum(halv) / sum(its) if sum(its) else 0.0,
                                              "count", len(wkeys)),
        "baselines.mixed_ns": Metric(mean_ns("baselines.mixed"), "ns", n_traced * len(items)),
        "baselines.mixed_iterations_per_pair": Metric(
            _mean(counts["mixed_iterations"].values()), "count", len(items)),
        "oracle.reference_ext_gcd_ns": Metric(ref_ns, "ns", n_traced * len(items)),
        "floor.math_gcd_ns": Metric(mean_ns("floor.math_gcd"), "ns", n_traced * len(items)),
        "floor.pow_inverse_ns": Metric(pow_ns, "ns", n_traced * len(items)),
        "ratio.ext_gcd_over_pow": Metric(ext_ns / pow_ns if pow_ns else 0.0, "ratio",
                                         n_traced * len(items)),
        "ratio.ext_gcd_over_reference": Metric(ext_ns / ref_ns if ref_ns else 0.0, "ratio",
                                               n_traced * len(items)),
        "cli.parse_us": Metric(mean_ns("cli.parse", cli_keys) / 1e3, "us", n_cli),
        "cli.run_us": Metric(mean_ns("cli.run", cli_keys) / 1e3, "us", n_cli),
        "cli.format_us": Metric(
            (paired_ns("cli.run", "cli.parse", cli_keys) - mean_ns("core.ext_gcd", cli_keys))
            / 1e3, "us", n_cli),
        "import.cli_ms": Metric(statistics.median(w for w, _ in imports) / 1e6
                                if imports else 0.0, "ms", len(imports)),
        "floor.interp_start_ms": Metric(statistics.median(interp) / 1e6 if interp else 0.0,
                                        "ms", len(interp)),
        "timer_overhead_ns": Metric(timer_ns, "ns", 1),
        "trace.overhead_frac": Metric(statistics.median(overheads), "ratio", n_traced),
    }
    for metric, module in IMPORT_MODULES.items():
        m[metric] = Metric(
            statistics.median(c.get(module, 0) for _, c in imports) / 1e3 if imports else 0.0,
            "ms", len(imports))
    all_tallies = [*tallies.values(), *count_tallies, cli_tally, child_tally]
    return m, all_tallies, spans, repeat
