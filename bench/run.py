"""cubelab benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 22 --trace 0

The run imports cubelab from ./src, builds the workload's inputs from the
seed and warms up (set-up), then repeats timed passes over the workload's
operations until --seconds have elapsed. With --trace 1 the second pass runs
with every public function of cubelab wrapped in a span recorder; the other
passes stay untraced, and their difference is the tracing overhead. Outputs
of the first pass are checked against independent computations; every later
pass must reproduce them exactly. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the full
record, with the environment, goes to bench/results/.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: on a two-core host shared with other tenants, threaded
# BLAS turns contention into timing noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_REPEATS = 3
# One speed probe runs every PROBE_PERIOD_S of wall time (see SpeedSampler).
PROBE_PERIOD_S = 0.05
# Idle time after set-up, spent sampling the speed at which the imports ran.
SPEED_WINDOW_S = 0.5
KERNELS = ("gibbs", "dula", "dmala", "dups", "dmaps", "prox_exact")
CHAIN_KEYS = [f"{s}.{m}" for s in ("gibbs", "dula", "dmala", "dups", "dmaps")
              for m in ("table", "vector")] + ["single.table"]


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("certify", "diagnose", "chains"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def import_cubelab():
    """Import the package from the checkout's source tree and nowhere else."""
    src = ROOT / "src"
    if not (src / "cubelab" / "__init__.py").is_file():
        sys.exit(f"bench: no cubelab sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import cubelab

    if Path(cubelab.__file__).resolve().parent != (src / "cubelab").resolve():
        sys.exit(f"bench: imported cubelab from {cubelab.__file__}, not from {src}")


class ChainClock:
    """Times each `simulate.run_chain` call; the only hook into cubelab of an untraced pass."""

    def __init__(self):
        self.records = []  # (operation index, chain key, chain steps, start, end)
        self.op = None

    def __enter__(self):
        import cubelab.simulate as sim

        self._inner = inner = sim.run_chain

        def timed(cfg, *args, **kwargs):
            start = time.perf_counter()
            result = inner(cfg, *args, **kwargs)
            self.records.append((*self.op, cfg.steps * cfg.chains, start, time.perf_counter()))
            return result

        sim.run_chain = timed
        return self

    def __exit__(self, *exc):
        import cubelab.simulate as sim

        sim.run_chain = self._inner


class SpeedSampler:
    """Samples the machine's speed while the benchmark runs.

    On a host shared with other tenants the same work takes a third longer
    or shorter from one second to the next. Every PROBE_PERIOD_S of wall
    time a SIGALRM handler runs one of three fixed probes, in turn, in the
    benchmark's own thread, so it measures the processor the operations run
    on at that moment: interpreter arithmetic with small numpy and LAPACK
    calls, scattered reads of a ~2 MB working set, and heap operations.
    Each probe's speed is its nominal time over its measured time.
    `reference_seconds` turns a wall interval into seconds at nominal speed:
    the probes' own time is taken out and the rest is multiplied by the
    probes' mean speed in the interval.
    """

    def __init__(self):
        import numpy as np

        self.samples: list[tuple[float, float, float]] = []  # (start, seconds, nominal)
        self._np = np
        self._list = list(range(50_000))
        self._dict = {i: i for i in range(20_000)}
        self._array = np.random.default_rng(0).random(100_000)
        self._index = np.random.default_rng(1).integers(0, 50_000, 3_000).tolist()
        # (probe, its time in seconds at nominal speed)
        self._probes = ((self._arithmetic, 1.0e-3), (self._memory, 2.7e-3), (self._heap, 1.3e-3))

    def _arithmetic(self):
        np = self._np
        total = 0
        for i in range(8_000):
            total += i * i % 7
        x = np.arange(64, dtype=np.float64)
        for _ in range(40):
            x = np.sqrt(x * x + 1.0)
        np.linalg.eigvals(np.add.outer(x[:24], x[:24]) % 1.0)

    def _memory(self):
        total = 0
        for i in self._index:
            total += self._list[i] + self._dict.get(i & 16383, 0)
        float(self._array[self._index].sum() + self._np.sort(self._array[:4_000])[10])

    @staticmethod
    def _heap():
        heap = []
        for i in range(1_500):
            heapq.heappush(heap, (i * 7919 % 1000, i))
        while heap:
            heapq.heappop(heap)

    def _sample(self, signum, frame):
        probe, nominal = self._probes[len(self.samples) % len(self._probes)]
        start = time.perf_counter()
        probe()
        self.samples.append((start, time.perf_counter() - start, nominal))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start: float, end: float) -> float:
        """Mean probe speed over an interval, or within half a second of it."""
        near = ([(d, n) for t, d, n in self.samples if start <= t < end]
                or [(d, n) for t, d, n in self.samples if start - 0.5 <= t < end + 0.5])
        return sum(n / d for d, n in near) / len(near)

    def reference_seconds(self, start: float, end: float) -> float:
        probing = sum(d for t, d, _ in self.samples if start <= t < end)
        return (end - start - probing) * self.speed(start, end)


def run_pass(ops, sampler: SpeedSampler, recorder=None, reference=None) -> dict:
    """One pass over the operations; wall time counts the operations only.

    Given the first pass's outputs as `reference`, an untraced pass keeps
    only whether each output matched, so memory does not grow with passes.
    """
    keep = reference is None or recorder is not None
    outputs, matches, errors, spans = [], [], [], []
    if recorder is not None:
        recorder.install()
    try:
        with ChainClock() as clock:
            for i, op in enumerate(ops):
                clock.op = (i, op.chain_key)
                start = time.perf_counter()
                try:
                    out = recorder.run_op(op.label, op.run) if recorder else op.run()
                    err = None
                except Exception:
                    out, err = None, traceback.format_exc()
                spans.append((start, time.perf_counter()))
                matches.append(reference is None or same_output(out, reference[i]))
                outputs.append(out if keep else None)
                errors.append(err)
    finally:
        if recorder is not None:
            recorder.uninstall()
    ref = [sampler.reference_seconds(a, b) for a, b in spans]
    chains = [(i, key, steps, sampler.reference_seconds(a, b))
              for i, key, steps, a, b in clock.records]
    return {"wall_s": sum(b - a for a, b in spans), "op_seconds": [b - a for a, b in spans],
            "ref_s": sum(ref), "op_ref_seconds": ref, "outputs": outputs, "matches": matches,
            "errors": errors, "chains": chains, "traced": recorder is not None}


def chain_rate(p: dict, mode: str) -> float:
    """Chain steps per reference second of run_chain time."""
    recs = [r for r in p["chains"] if r[1].endswith("." + mode)]
    secs = sum(r[3] for r in recs)
    return sum(r[2] for r in recs) / secs if secs > 0 else 0.0


def same_output(a, b) -> bool:
    if hasattr(a, "shape"):
        import numpy as np

        return hasattr(b, "shape") and np.array_equal(a, b)
    return a == b


def account(ops, passes) -> tuple[int, int, bool, dict]:
    """Attempted and failed operations, whether outputs were right, and why not.

    An operation fails in a pass when it raises, when its output differs
    from the first pass's, or when the first pass's output fails its check.
    """
    problems = {}
    for i, op in enumerate(ops):
        if passes[0]["errors"][i] is None:
            try:
                found = op.check(passes[0]["outputs"][i])
            except Exception:
                found = ["check raised: " + traceback.format_exc()]
            if found:
                problems[op.label] = found
    wrong = set(problems)
    failed = 0
    for p in passes:
        for i, op in enumerate(ops):
            if p["errors"][i] is not None:
                problems.setdefault(op.label, []).append("raised: " + p["errors"][i])
            elif not p["matches"][i]:
                problems.setdefault(op.label, []).append("output differs from the first pass")
                wrong.add(op.label)
            elif op.label not in wrong:
                continue
            failed += 1
    return len(ops) * len(passes), failed, not wrong, problems


def layer_metrics(recorder, traced: dict, untraced_wall: float, ops) -> dict:
    """Per-layer figures from the traced pass's spans, at the reference speed."""
    import numpy as np

    spans = recorder.summary({op.label: r / w for op, r, w in zip(
        ops, traced["op_ref_seconds"], traced["op_seconds"])})
    m = {}

    def get(name):
        return spans.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [],
                                "errors": {}})

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    w = get("analysis.wasserstein_hamming")
    put("analysis.wasserstein_hamming.calls", w["calls"], "count")
    put("analysis.wasserstein_hamming.s", w["s"], "s")
    for q in (50, 99):
        value = float(np.percentile(w["durations"], q)) * 1e3 if w["durations"] else 0.0
        put(f"analysis.wasserstein_hamming.p{q}_ms", value, "ms")
    for name in ("contraction_certificate", "stationary", "spectral_summary"):
        put(f"analysis.{name}.calls", get(f"analysis.{name}")["calls"], "count")
        put(f"analysis.{name}.s", get(f"analysis.{name}")["s"], "s")
    put("analysis.stationary.stalls", get("analysis.stationary")["errors"].get("NumericalError", 0),
        "count")
    for name in ("run_certificates", "bounds_report", "dmaps_empirical_delta"):
        put(f"analysis.{name}.s", get(f"analysis.{name}")["s"], "s")
    for k in KERNELS:
        put(f"kernels.{k}_matrix.calls", get(f"kernels.{k}_matrix")["calls"], "count")
        put(f"kernels.{k}_matrix.s", get(f"kernels.{k}_matrix")["s"], "s")
    for name in ("tabulate_scores", "score_signs"):
        put(f"scores.{name}.calls", get(f"scores.{name}")["calls"], "count")
        put(f"scores.{name}.s", get(f"scores.{name}")["s"], "s")
    put("models.exact_target.calls", get("models.exact_target")["calls"], "count")
    put("models.exact_target.s", get("models.exact_target")["s"], "s")
    put("models.log_weight_signs.calls", get("models.log_weight_signs")["calls"], "count")
    put("statespace.all_signs.calls", get("statespace.all_signs")["calls"], "count")

    put("simulate.run_chain.s", get("simulate.run_chain")["s"], "s")
    for key in CHAIN_KEYS:
        recs = [r for r in traced["chains"] if r[1] == key]
        secs = sum(r[3] for r in recs)
        put(f"simulate.run_chain.{key}.steps_per_s",
            sum(r[2] for r in recs) / secs if secs > 0 else 0.0, "steps/s")
    st = get("simulate.sample_transitions")
    draws = sum(op.meta.get("draws", 0) for op in ops)
    put("simulate.sample_transitions.s", st["s"], "s")
    put("simulate.sample_transitions.draws_per_s", draws / st["s"] if st["s"] > 0 else 0.0,
        "draws/s")
    events = sum(out.text.count("\n") - 2 for op, out in zip(ops, traced["outputs"])
                 if op.label == "ctmc" and out is not None)
    ct = get("ctmc.ctmc_simulate")
    put("ctmc.ctmc_simulate.events", events, "count")
    put("ctmc.ctmc_simulate.events_per_s", events / ct["s"] if ct["s"] > 0 else 0.0, "events/s")

    for cmd in ("analyze", "sweep", "check", "simulate", "ctmc"):
        put(f"cli.{cmd}.s", get(f"cli.cmd_{cmd}")["s"], "s")
    put("cli.self_s", sum(v["self_s"] for k, v in spans.items() if k.startswith("cli.")), "s")
    put("trace.overhead_s", traced["ref_s"] - untraced_wall, "s")
    return m


def environment() -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "git_sha": git_sha(),
    }


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def main() -> int:
    args = parse_args()
    import_cubelab()
    sys.path.insert(0, str(BENCH))
    import tracer
    import workloads

    import_s = time.perf_counter() - T0
    work = BENCH / "work"
    work.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work)
    try:
        with SpeedSampler() as sampler:
            setups = []
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                ops = workloads.build(args.workload, args.seed, tmp)
                for warm in workloads.warmup(args.workload, tmp):
                    warm()
                setups.append((start, time.perf_counter()))
            time.sleep(SPEED_WINDOW_S)  # probes keep sampling: the speed the imports ran at
            setup_s = (import_s * sampler.speed(setups[0][0], time.perf_counter())
                       + statistics.median(sampler.reference_seconds(a, b) for a, b in setups))

            recorder = tracer.Recorder() if args.trace else None
            passes = []
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < args.seconds or (
                    args.trace and len(passes) < 2):
                traced = args.trace and len(passes) == 1
                passes.append(run_pass(ops, sampler, recorder if traced else None,
                                       passes[0]["outputs"] if passes else None))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, correct, problems = account(ops, passes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    untraced_wall = statistics.median(p["ref_s"] for p in untraced)
    if args.trace:
        traced = next(p for p in passes if p["traced"])
        metrics = layer_metrics(recorder, traced, untraced_wall, ops)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": untraced_wall, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "table_steps_per_s": {"value": statistics.median(
                chain_rate(p, "table") for p in untraced), "unit": "steps/s"},
            "vector_steps_per_s": {"value": statistics.median(
                chain_rate(p, "vector") for p in untraced), "unit": "steps/s"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {**result, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "environment": environment(),
              "import_s": import_s, "setup_repeats_s": [b - a for a, b in setups],
              "speed_samples": len(sampler.samples),
              "passes": [{"wall_s": p["wall_s"], "ref_s": p["ref_s"], "traced": p["traced"],
                          "op_seconds": dict(zip((op.label for op in ops), p["op_seconds"])),
                          "op_ref_seconds": dict(zip((op.label for op in ops),
                                                     p["op_ref_seconds"]))}
                         for p in passes],
              "problems": problems}
    with open(results / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=2)
    if recorder is not None:
        recorder.write(str(results / f"{stem}.spans.jsonl"))
    for label, msgs in problems.items():
        for msg in msgs:
            print(f"bench: {label}: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
