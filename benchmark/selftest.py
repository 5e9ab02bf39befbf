"""Self-test of the benchmark: run with ``python3 benchmark/selftest.py``.

1. Mutation checks: corrupted outputs (an anti-conservative bound, an
   audit against a corrupted bound, a flipped goal status)
   go through the correctness checks, which must flag each of them.
2. Smoke runs: every workload, traced and untraced, on a tiny pool; the
   result line must name every metric of ``BENCHMARK.json`` with its unit.
3. A copy holding only ``BENCHMARK.json`` and the benchmark's files must
   exit with an error and print no result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def mutation_checks() -> None:
    sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]
    import checks
    import workloads as wl
    from relbound import gsn, operational, priors, solver

    constraints, objective, obs = wl.PROBE_GRID_LIMITED
    grid = priors.build_grid(constraints, objective, 2000)
    result = solver.solve(constraints, obs, objective, grid)
    assert checks.check_solve(constraints, obs, objective, grid, result) == [], "probe must pass"
    # the objective is minimised, so a higher bound is the optimistic side
    corrupted = dataclasses.replace(result, bound=min(1.0, result.bound + 0.5 * (1 - result.bound)))
    reasons = checks.check_solve(constraints, obs, objective, grid, corrupted)
    assert any(checks.is_tracked_defect(r) for r in reasons), reasons
    print("ok  mutation: anti-conservative bound flagged")

    # 1.0 is the most optimistic reliability claim there is
    report = operational.check_conservatism(constraints, obs, objective, 50, seed=1, grid=grid, bound=1.0)
    assert any(checks.is_tracked_defect(r) for r in checks.check_audit(report, 50))
    print("ok  mutation: audit against a corrupted bound flagged")

    inst = wl.gsn_pool(random.Random(1))[0]
    case, case_obs = inst.args
    statuses = gsn.evaluate_case(case, case_obs, wl.GSN_MODULES, resolution=wl.GSN_RESOLUTION)
    goal = next(n.id for n in case.nodes if n.claim_binding is not None)
    flipped = dict(statuses)
    flipped[goal] = gsn.UNSATISFIED if statuses[goal] == gsn.SATISFIED else gsn.SATISFIED
    reasons, _ = checks.check_case(case, case_obs, wl.GSN_RESOLUTION, flipped)
    assert any(r.startswith(f"{goal}: status") for r in reasons), reasons
    print("ok  mutation: flipped goal status flagged")


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--pool-size", "3"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def smoke_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = _run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == RESULT_KEYS, result.keys()
            assert result["attempted"] >= 1
            printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
            assert printed == expected[trace], (workload, trace, printed)
            print(f"ok  smoke: {workload} trace={trace} prints all {len(printed)} metrics")


def bare_copy_fails() -> None:
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "benchmark", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "solve-mix", 0)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        assert proc.returncode != 0, "the bare copy must fail"
        assert not last.startswith("{"), "the bare copy must print no result"
    finally:
        shutil.rmtree(bare)
    print(f"ok  bare copy exits {proc.returncode} without a result")


if __name__ == "__main__":
    os.chdir(ROOT)
    mutation_checks()
    smoke_runs()
    bare_copy_fails()
    print("selftest passed")
