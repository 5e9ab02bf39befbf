"""relbound benchmark runner.

    python3 benchmark/run.py --workload solve-mix --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 30

One workload runs in one process, a closed loop with one caller: it
builds the workload's seeded input pool, warms up, then runs ops over the
pool until ``--seconds`` have passed and at least one whole pass is done.
Outputs are checked after the timed loop, in child processes, so checks
add no time to any op. ``attempted`` and ``failed`` count pool inputs,
not ops: an input fails when any of its ops raised or its output failed a
check. The program is deterministic, so both counts repeat exactly for a
seed, however many times a run's length let each input run.

Timings are scaled to a reference host speed. The host's speed drifts
by a fifth or more within a minute, in CPU time as much as in wall time,
so after every op the runner times a fixed numpy kernel (``reference.py``)
and scales the op's wall time by the kernel's reference time over its
median time around that op. ``op_ms_*`` and ``ops_per_s`` are in these
scaled units, taken per input: an input that ran more than once counts
once, with the median of its times, so a run's figures describe its pool
and not how far the run got into a second pass. The report line also
holds the unscaled wall-clock figures. ``setup_s`` is the median wall
time of five set-ups. ``ops_per_s`` leaves out the slowest 1% of inputs.

``--workload all`` runs every workload in its own child process and
prints a table of the end-to-end metrics.

With ``--trace 0`` the result line holds the end-to-end metrics. With
``--trace 1`` the run makes one untraced and one traced phase of whole
passes over the first third of the pool, each for half of ``--seconds``,
and the result line holds the per-layer metrics of the traced phase plus
the tracing overhead; the spans go to ``benchmark/out/``.

The last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
describe the run (versions, op counts, per-input bounds and their digest,
solver status counts, failures). The exit code is 0 when the run
completed, whatever the checks found, and non-zero when it could not run.
"""

from __future__ import annotations

import os

# fixed before numpy is imported anywhere in this process or its children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import argparse
import collections
import hashlib
import json
import math
import pickle
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("solve-mix", "audit", "gsn-case")
#: set-ups per run whose median is ``setup_s``: this process and four children
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170
#: child processes that check outputs once the timed loop is over
CHECK_WORKERS = 2
RAISED = "raised"
#: share of slowest inputs left out of ``ops_per_s``. A few solve-mix
#: inputs in ten thousand make the simplex pivot for seconds before it
#: returns, so whether a pool holds one would otherwise swing the figure
#: by a third; the slowest times are in the report line as
#: ``slowest_inputs_ms``, and the untrimmed figure beside them.
THROUGHPUT_TRIM = 0.01
#: traced runs use the first 1/N of the pool, in whole passes, so that their
#: per-op counts repeat exactly for a seed
TRACE_POOL_DIVISOR = 3

E2E_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "pass_share": "share",
    "peak_rss_mb": "MB",
}


def _percentile(values, q: int) -> float:
    """The q-th percentile, by ``statistics.quantiles`` with n=100."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _import_relbound():
    if not (SRC / "relbound" / "__init__.py").is_file():
        raise SystemExit(f"error: no relbound sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import relbound

    if Path(relbound.__file__).resolve().parent != SRC / "relbound":
        raise SystemExit(f"error: imported relbound from {relbound.__file__}, not {SRC}")
    return relbound


def set_up(workload_name: str, seed: int, pool_size: int | None):
    """Import relbound, build the input pool and warm up: the work a user
    waits for before the first op. Returns the workload, pool and seconds."""
    start = time.perf_counter()
    _import_relbound()
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    pool = workload.make_pool(random.Random(seed))[:pool_size]
    workload.op(workloads.warmup_instance(workload))
    return workload, pool, time.perf_counter() - start


def probe_setup(workload: str, seed: int, pool_size: int | None) -> float:
    """One set-up in a fresh child process, in seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    if pool_size is not None:
        cmd += ["--pool-size", str(pool_size)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _fingerprint(output) -> str:
    """A canonical text of an op's output, to compare repeated runs of one input."""
    if hasattr(output, "to_dict"):
        output = output.to_dict()
    return json.dumps(output, sort_keys=True)


class Phase:
    """The ops of one timed phase.

    Latency and throughput are taken over the ops that returned. An op that
    raised fails its input, its time is kept apart, and its input is not
    run again in this run: on a rare input the program can spin for
    seconds before it fails, and repeating that one defect would swamp
    every timing while ``pass_share`` already counts it.
    """

    def __init__(self, raised: set[int]) -> None:
        self.durations_ns: list[int] = []  # ops that returned
        self.kernel_ns: list[int] = []  # the reference kernel run after each of them
        self.returned_inputs: list[int] = []  # the pool index of each of them
        self.raised_ns: list[int] = []  # ops that raised
        self.first: dict[int, object] = {}  # pool index -> output of its first op
        self.op_inputs: list[int] = []
        self.op_reasons: list[list[str]] = []  # failures found while running
        self.raised = raised  # pool indices whose op raised, shared by a run's phases

    def run(self, workload, pool, seconds: float, whole_passes: bool, tracer=None) -> None:
        deadline = time.perf_counter() + seconds
        i = 0
        while len(self.raised) < len(pool):
            idx = i % len(pool)
            i += 1
            if idx not in self.raised:
                self._op(workload, pool, idx, tracer)
            if time.perf_counter() >= deadline and i >= len(pool):
                if not whole_passes or i % len(pool) == 0:
                    return

    def _op(self, workload, pool, idx: int, tracer) -> None:
        if tracer is not None:
            first_span = len(tracer.spans)
            tracer.op_id = len(self.op_inputs)
        t0 = time.perf_counter_ns()
        try:
            output, error = workload.op(pool[idx]), None
        except Exception as exc:  # an op's failure is a measured outcome
            output, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.op_id = None
        import reference

        kernel_ns = reference.time_kernel_ns()
        self.op_inputs.append(idx)
        reasons = []
        if error is not None:
            self.raised_ns.append(t1 - t0)
            self.raised.add(idx)
            reasons.append(f"{RAISED} {error}")
            if tracer is not None:  # per-layer metrics cover the ops that returned
                del tracer.spans[first_span:]
        else:
            self.durations_ns.append(t1 - t0)
            self.kernel_ns.append(kernel_ns)
            self.returned_inputs.append(idx)
            if idx not in self.first:
                self.first[idx] = output
            elif _fingerprint(output) != _fingerprint(self.first[idx]):
                reasons.append("output differs from the first op on this input")
        self.op_reasons.append(reasons)

    @property
    def ops(self) -> int:
        """Ops that returned."""
        return len(self.durations_ns)

    def scaled_ms(self) -> list[float]:
        """Each returned op's time, in ms at the reference host speed."""
        import reference

        factors = reference.scale_factors(self.kernel_ns)
        return [d / 1e6 * f for d, f in zip(self.durations_ns, factors)]

    def input_ms(self, scaled: bool = True) -> dict[int, float]:
        """For each input that returned, the median time of its ops in ms."""
        times = self.scaled_ms() if scaled else [d / 1e6 for d in self.durations_ns]
        by_input = collections.defaultdict(list)
        for idx, ms in zip(self.returned_inputs, times):
            by_input[idx].append(ms)
        return {idx: statistics.median(v) for idx, v in by_input.items()}

    def latency_ms(self, q: int, scaled: bool = True) -> float:
        return _percentile(list(self.input_ms(scaled).values()), q)

    def ops_per_s(self, scaled: bool = True, trim: float = THROUGHPUT_TRIM) -> float:
        """Ops per second of a closed loop making one pass over the inputs,
        less the slowest ``trim`` share of them."""
        per_input = sorted(self.input_ms(scaled).values())
        kept = per_input[: len(per_input) - math.ceil(trim * len(per_input))] or per_input
        return len(kept) / (sum(kept) / 1e3)


def _wrong_output(reason: str) -> bool:
    """Whether a failure means the program returned a wrong answer.

    An op that raised returned no answer: it counts as failed, not wrong.
    An anti-conservative bound is the open solver defect the ROADMAP
    tracks (Open item 1): it counts as failed and shows in ``pass_share``.
    Every other failed check means an answer the run cannot trust.
    """
    import checks

    return not (reason.startswith(RAISED) or checks.is_tracked_defect(reason))


def _check_items(workload_name: str, items) -> dict:
    """Failure reasons and (bound, status) list for each (index, input, output)."""
    import checks

    results = {}
    for idx, inst, output in items:
        try:
            results[idx] = checks.check_op(workload_name, inst, output)
        except Exception as exc:  # a check that cannot run fails the op
            results[idx] = ([f"check raised {type(exc).__name__}: {exc}"], [])
    return results


def check_worker() -> None:
    """Child side of ``check_outputs``: items in on stdin, results out on stdout."""
    _import_relbound()
    workload_name, items = pickle.load(sys.stdin.buffer)
    pickle.dump(_check_items(workload_name, items), sys.stdout.buffer)


def check_outputs(workload_name: str, pool, phases) -> tuple[dict, dict]:
    """Check the first output of every input that ran, split over one child
    process per core: the timed loop is over, so the checks cannot disturb
    it. Returns failure reasons and the (bound, status) list per pool index."""
    first = {}
    for phase in phases:
        for idx, output in phase.first.items():
            first.setdefault(idx, output)
    items = [(idx, pool[idx], first[idx]) for idx in sorted(first)]
    workers = max(1, min(CHECK_WORKERS, os.cpu_count() or 1))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--check-worker"]
    procs = [subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
             for _ in range(workers)]
    results = {}
    try:
        for w, proc in enumerate(procs):
            pickle.dump((workload_name, items[w::workers]), proc.stdin)
            proc.stdin.close()
        for proc in procs:
            # only this program's own child wrote these bytes
            results.update(pickle.loads(proc.stdout.read()))
            if proc.wait() != 0:
                raise RuntimeError(f"check worker exited with {proc.returncode}")
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    reasons = {idx: r for idx, (r, _) in results.items()}
    solves = {idx: s for idx, (_, s) in results.items()}
    return reasons, solves


def _bound_report(pool, solves: dict) -> dict:
    bounds = {pool[idx].id: [b for b, _ in entries] for idx, entries in sorted(solves.items())}
    statuses = collections.Counter(s for entries in solves.values() for _, s in entries)
    text = json.dumps(sorted(bounds.items()), sort_keys=True)
    all_solves = sum(statuses.values())
    return {
        "bounds": bounds,
        "bound_digest": hashlib.sha256(text.encode()).hexdigest()[:16],
        "solver_status_counts": dict(sorted(statuses.items())),
        "infeasible_share": statuses.get("infeasible", 0) / all_solves if all_solves else 0.0,
    }


def measure(args, workload, pool):
    """The timed phases: one phase over the pool, or an untraced and a
    traced phase over the head of the pool. Returns the phases and the tracer."""
    raised: set[int] = set()
    if not args.trace:
        timed = Phase(raised)
        timed.run(workload, pool, args.seconds, whole_passes=False)
        return [timed], None
    import spans

    head = pool[: max(1, len(pool) // TRACE_POOL_DIVISOR)]
    untraced, traced = Phase(raised), Phase(raised)
    untraced.run(workload, head, args.seconds / 2, whole_passes=True)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced.run(workload, head, args.seconds / 2, whole_passes=True, tracer=tracer)
    finally:
        tracer.uninstall()
    return [untraced, traced], tracer


def tally(phases, check_reasons: dict):
    """Every input that ran, with the failure reasons of its ops and of its
    check. Returns the inputs attempted, failed and answered wrongly, and
    the reasons by pool index."""
    reasons = collections.defaultdict(set)
    for phase in phases:
        for idx, run_reasons in zip(phase.op_inputs, phase.op_reasons):
            reasons[idx].update(run_reasons, check_reasons.get(idx, []))
    failures = {idx: r for idx, r in reasons.items() if r}
    wrong_output = sum(any(_wrong_output(r) for r in r_set) for r_set in failures.values())
    return len(reasons), len(failures), wrong_output, failures


def run_workload(args) -> int:
    workload, pool, own_setup = set_up(args.workload, args.seed, args.pool_size)
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    import numpy
    import reference

    reference.median_kernel_ns()  # warm the kernel before the first op

    setups = [own_setup] + [
        probe_setup(args.workload, args.seed, args.pool_size) for _ in range(SETUP_PROBES)
    ]
    phases, tracer = measure(args, workload, pool)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_start = time.perf_counter()
    check_reasons, solves = check_outputs(args.workload, pool, phases)
    check_s = time.perf_counter() - check_start
    attempted, failed, wrong_output, failures = tally(phases, check_reasons)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pool_inputs": len(pool),
        "ops": [phase.ops for phase in phases],
        "ops_raised": [len(phase.raised_ns) for phase in phases],
        "raised_op_s": [sum(phase.raised_ns) / 1e9 for phase in phases],
        "attempted_inputs": attempted,
        "failed_inputs": failed,
        "fail_share": failed / attempted,
        "setup_s_samples": setups,
        "kernel_ms_median": [statistics.median(p.kernel_ns) / 1e6 if p.kernel_ns else None
                             for p in phases],
        "check_s": check_s,
        "failures": [
            {"input": pool[idx].id, "structure": pool[idx].structure, "reasons": sorted(reasons)}
            for idx, reasons in sorted(failures.items())
        ],
        **_bound_report(pool, solves),
    }
    if tracer is None:
        (timed,) = phases
        report.update(
            wall_op_ms_p50=timed.latency_ms(50, scaled=False),
            wall_op_ms_p90=timed.latency_ms(90, scaled=False),
            wall_ops_per_s=timed.ops_per_s(scaled=False),
            untrimmed_ops_per_s=timed.ops_per_s(trim=0.0),
            slowest_inputs_ms={
                pool[idx].id: ms
                for idx, ms in sorted(timed.input_ms().items(), key=lambda item: -item[1])[:5]
            },
        )
        metrics = {
            "setup_s": statistics.median(setups),
            "op_ms_p50": timed.latency_ms(50),
            "op_ms_p90": timed.latency_ms(90),
            "ops_per_s": timed.ops_per_s(),
            "pass_share": 1.0 - failed / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        units = E2E_UNITS
    else:
        import spans

        untraced, timed = phases
        metrics = spans.layer_metrics(tracer.spans, timed.ops, sum(timed.durations_ns))
        metrics["trace.overhead_ms_p50"] = timed.latency_ms(50) - untraced.latency_ms(50)
        units = {name: spans.unit_of(name) for name in metrics}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        report.update(
            untraced_op_ms_p50=untraced.latency_ms(50),
            traced_op_ms_p50=timed.latency_ms(50),
            spans=len(tracer.spans),
            spans_file=str(spans_path.relative_to(ROOT)),
        )
    # op metrics count inputs untraced, and ops in the traced phase's per-op figures
    timed_samples = timed.ops if tracer is not None else len(timed.input_ms())
    samples = {name: timed_samples for name in metrics}
    samples.update(setup_s=len(setups), peak_rss_mb=1, pass_share=attempted)

    print(json.dumps({"report": report}))
    for name, value in metrics.items():
        print(f"{args.workload:12s} {name:48s} {value:14.6g} {units[name]:12s} n={samples[name]}")
    print(json.dumps({
        "correct": wrong_output == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own child process, then one table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.pool_size is not None:
            cmd += ["--pool-size", str(args.pool_size)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
            rows.append((name, metric, entry["value"], entry["unit"]))
    print()
    for name, metric, value, unit in rows:
        print(f"{name:12s} {metric:48s} {value:14.6g} {unit}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    if argv is None and sys.argv[1:] == ["--check-worker"]:
        check_worker()
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool-size", type=int, default=None,
                        help="use only the first N inputs of the pool (for smoke runs)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
