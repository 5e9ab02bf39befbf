"""Smoke test of ``tools/output_digest.py`` on the first inputs of each pool."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


def _run(*args, status=0) -> str:
    proc = subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == status, proc.stderr
    return proc.stdout


def test_three_inputs_per_workload(tmp_path):
    dump = tmp_path / "outputs.json"
    first = _run("--limit", "3", "--dump", str(dump))
    lines = [line.split() for line in first.splitlines()]
    assert [line[0] for line in lines] == ["solve-mix"] * 4 + ["audit"] * 4 + ["gsn-case"] * 4
    outputs = json.loads(dump.read_text())
    pool_hash = hashlib.sha256()
    for workload, seed, inst_id, sha, *count in lines:
        assert seed == "5"
        if inst_id == "*":
            assert (sha, count) == (pool_hash.hexdigest(), ["3"])
            pool_hash = hashlib.sha256()
            continue
        pool_hash.update(f"{workload} {seed} {inst_id} {sha}\n".encode())
        doc = outputs[workload][seed][inst_id]
        assert sha == hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        expected_keys = {"solve-mix": "bound", "audit": "records", "gsn-case": "claims"}
        assert expected_keys[workload] in doc or "raised" in doc
    # a second run prints the same digests
    assert _run("--limit", "3") == first


def test_seeds_give_different_pools():
    five = _run("--workload", "solve-mix", "--limit", "2")
    seven = _run("--workload", "solve-mix", "--seed", "7", "--limit", "2")
    assert five.splitlines()[-1].split()[3] != seven.splitlines()[-1].split()[3]


def test_extreme_pool(tmp_path):
    dump = tmp_path / "outputs.json"
    lines = [line.split() for line in _run("--extreme", "20", "--dump", str(dump)).splitlines()]
    # given alone, --extreme runs only its own pool
    assert [line[:2] for line in lines] == [["extreme", "5"]] * 21
    assert [line[2] for line in lines] == [f"e{i}" for i in range(20)] + ["*"]
    outputs = json.loads(dump.read_text())["extreme"]["5"]
    pool_hash = hashlib.sha256()
    for workload, seed, inst_id, sha in lines[:-1]:
        doc = outputs[inst_id]
        assert sha == hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert "bound" in doc or "raised" in doc
        pool_hash.update(f"{workload} {seed} {inst_id} {sha}\n".encode())
    assert lines[-1][3:] == [pool_hash.hexdigest(), "20"]
    # another seed draws other inputs
    assert _run("--extreme", "20", "--seed", "7") != _run("--extreme", "20")


def test_oracle_pool(tmp_path):
    dump = tmp_path / "outputs.json"
    lines = [
        line.split()
        for line in _run("--oracle", "--workload", "solve-mix", "--limit", "3", "--dump", str(dump))
        .splitlines()
    ]
    # beside a workload, --oracle adds its pool over the same solve-mix inputs
    assert [line[0] for line in lines] == ["solve-mix"] * 4 + ["oracle"] * 4
    assert [line[2] for line in lines[4:-1]] == [line[2] for line in lines[:3]]
    outputs = json.loads(dump.read_text())
    pool_hash = hashlib.sha256()
    for workload, seed, inst_id, sha in lines[4:-1]:
        doc = outputs["oracle"][seed][inst_id]
        assert sha == hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert "raised" in doc or doc["solver_status"] in ("optimal", "grid-limited", "infeasible")
        solved = outputs["solve-mix"][seed][inst_id]
        if "raised" not in doc and "raised" not in solved:
            # the same input: only the grid, a sub-grid of the solve's, differs
            assert doc["observation"] == solved["observation"]
            assert doc["objective"] == solved["objective"]
            assert doc["grid_resolution"] <= solved["grid_resolution"]
        pool_hash.update(f"{workload} {seed} {inst_id} {sha}\n".encode())
    assert lines[-1][3:] == [pool_hash.hexdigest(), "3"]
    # given alone, --oracle runs only its own pool
    assert _run("--oracle", "--limit", "3").splitlines() == [" ".join(line) for line in lines[4:]]


def test_audit_seeds_pool(tmp_path):
    dump = tmp_path / "outputs.json"
    args = ("--audit-seeds", "--workload", "audit", "--limit", "7", "--dump", str(dump))
    lines = [line.split() for line in _run(*args).splitlines()]
    # beside a workload, --audit-seeds adds its pool over the same audit inputs
    assert [line[0] for line in lines] == ["audit"] * 8 + ["audit-seeds"] * 8
    assert [line[2] for line in lines[8:-1]] == [line[2] for line in lines[:7]]
    outputs = json.loads(dump.read_text())
    pool_hash = hashlib.sha256()
    for (workload, seed, inst_id, sha), audited in zip(lines[8:-1], lines[:7]):
        doc = outputs["audit-seeds"][seed][inst_id]
        assert sha == hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert "raised" in doc or len(doc["records"]) == doc["trials"] == 100
        # the same input at another audit seed draws other trials
        assert "raised" in doc or sha != audited[3]
        pool_hash.update(f"{workload} {seed} {inst_id} {sha}\n".encode())
    assert lines[-1][3:] == [pool_hash.hexdigest(), "7"]
    # given alone, --audit-seeds runs only its own pool
    alone = _run("--audit-seeds", "--limit", "7").splitlines()
    assert alone == [" ".join(line) for line in lines[8:]]


def test_gsn_ties_pool(tmp_path):
    dump = tmp_path / "outputs.json"
    args = ("--gsn-ties", "--workload", "gsn-case", "--limit", "3", "--dump", str(dump))
    lines = [line.split() for line in _run(*args).splitlines()]
    # beside a workload, --gsn-ties adds its pool over the same gsn-case inputs
    assert [line[0] for line in lines] == ["gsn-case"] * 4 + ["gsn-ties"] * 4
    assert [line[2] for line in lines[4:-1]] == [line[2] for line in lines[:3]]
    outputs = json.loads(dump.read_text())
    pool_hash = hashlib.sha256()
    for workload, seed, inst_id, sha in lines[4:-1]:
        doc = outputs["gsn-ties"][seed][inst_id]
        assert sha == hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        claims = outputs["gsn-case"][seed][inst_id]["claims"]
        for goal, solved in claims.items():
            bound = solved.get("bound")
            at, below, above = (doc[name]["thresholds"][goal] for name in ("at", "below", "above"))
            if bound is None:
                assert at == below == above
                continue
            # the bound itself and its float neighbours, kept in [0, 1]
            assert at == bound and below <= bound <= above
            assert (below, above) == (
                max(float(np.nextafter(bound, -np.inf)), 0.0),
                min(float(np.nextafter(bound, np.inf)), 1.0),
            )
            # a threshold equal to the bound holds either way
            assert doc["at"]["statuses"][goal] == "satisfied"
        pool_hash.update(f"{workload} {seed} {inst_id} {sha}\n".encode())
    assert lines[-1][3:] == [pool_hash.hexdigest(), "3"]
    # given alone, --gsn-ties runs only its own pool
    alone = _run("--gsn-ties", "--limit", "3").splitlines()
    assert alone == [" ".join(line) for line in lines[4:]]


def _solve_doc(bound, status, objective, support=(0.0,)):
    witness = None if bound is None else {"support": list(support), "masses": [1.0]}
    return {"bound": bound, "solver_status": status, "objective": objective, "witness": witness}


def _tie_doc(below="satisfied", at="satisfied", threshold=0.1):
    """A gsn-ties output with one goal, G1, and one threshold at every step."""
    doc = {"below": below, "at": at, "above": "unsatisfied"}
    return {
        step: {"thresholds": {"G1": threshold}, "statuses": {"G1": status}}
        for step, status in doc.items()
    }


def test_compare(tmp_path):
    maximised = {"type": "posterior_expected_pfd"}
    minimised = {"type": "future_reliability", "t": 10}
    raised = {"raised": "ZeroEvidenceError", "message": "no evidence"}
    infeasible = _solve_doc(None, "infeasible", maximised)
    old = {
        "extreme": {
            "5": {
                "e0": raised,
                "e1": _solve_doc(0.1, "optimal", maximised),
                "e2": _solve_doc(0.5, "grid-limited", minimised),
                "e3": _solve_doc(0.5, "optimal", minimised),
                "e4": _solve_doc(0.2, "optimal", minimised),
                "e5": _solve_doc(0.1, "optimal", maximised),
                "e6": raised,
            }
        },
        "gsn-case": {
            "5": {
                "g0": {
                    "statuses": {"G1": "satisfied", "G2": "satisfied"},
                    "claims": {
                        "G1": _solve_doc(0.1, "optimal", maximised),
                        "G2": _solve_doc(0.5, "optimal", minimised),
                    },
                },
                "g1": raised,
            }
        },
        "gsn-ties": {"5": {"g0": _tie_doc("satisfied", "satisfied"), "g1": _tie_doc()}},
    }
    new = {
        "extreme": {
            "5": {
                "e0": infeasible,
                "e1": _solve_doc(0.2, "optimal", maximised),
                "e2": _solve_doc(0.6, "grid-limited", minimised),
                "e3": _solve_doc(0.5, "optimal", minimised, support=(0.5,)),
                "e4": _solve_doc(0.2, "optimal", minimised),
                "e6": infeasible,
            }
        },
        "gsn-case": {
            "5": {
                "g0": {
                    "statuses": {"G1": "unsatisfied", "G2": "satisfied"},
                    "claims": {
                        "G1": _solve_doc(0.2, "optimal", maximised),
                        "G2": _solve_doc(0.5, "optimal", minimised),
                    },
                },
                "g1": {"statuses": {"G1": "satisfied"}, "claims": {"G1": infeasible}},
            }
        },
        "gsn-ties": {
            "5": {
                "g0": {**_tie_doc("unsatisfied", "satisfied"), "at": {"statuses": raised}},
                # only a threshold moved
                "g1": _tie_doc(threshold=0.2),
            }
        },
    }
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, doc in zip(paths, (old, new)):
        path.write_text(json.dumps(doc))
    # a dump compared with itself changes nothing, and exits 0
    assert _run("--compare", str(paths[0]), str(paths[0])).splitlines() == [
        "changed: 0 of 11 ops"
    ]
    # any changed op exits 1
    assert _run("--compare", *map(str, paths), status=1).splitlines() == [
        "extreme 5 e0: ZeroEvidenceError -> infeasible",
        # a larger bound is the worse side of a maximised objective
        "extreme 5 e1: optimal -> optimal, conservative (0.1 -> 0.2)",
        # and the better side of a minimised one
        "extreme 5 e2: grid-limited -> grid-limited, optimistic (0.5 -> 0.6)",
        "extreme 5 e3: optimal -> optimal, bound unchanged",
        "extreme 5 e5: optimal -> absent",
        "extreme 5 e6: ZeroEvidenceError -> infeasible",
        # a line per changed goal, and per changed claim, read as a solve
        "gsn-case 5 g0: G1: satisfied -> unsatisfied",
        "gsn-case 5 g0: G1 claim: optimal -> optimal, conservative (0.1 -> 0.2)",
        "gsn-case 5 g1: ZeroEvidenceError -> output",
        # in gsn-ties, a goal's status at each tie step
        "gsn-ties 5 g0: below G1: satisfied -> unsatisfied",
        "gsn-ties 5 g0: at G1: satisfied -> ZeroEvidenceError",
        "gsn-ties 5 g1: output -> output",
        "changed: 10 of 11 ops",
        # most changes first, then in order of first appearance
        "       2  ZeroEvidenceError -> infeasible",
        "       2  goal: satisfied -> unsatisfied",
        "       1  optimal -> optimal, conservative",
        "       1  grid-limited -> grid-limited, optimistic",
        "       1  optimal -> optimal, bound unchanged",
        "       1  optimal -> absent",
        "       1  claim: optimal -> optimal, conservative",
        "       1  ZeroEvidenceError -> output",
        "       1  goal: satisfied -> ZeroEvidenceError",
        "       1  output -> output",
    ]
