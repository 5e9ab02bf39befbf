import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from relbound.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return write, tmp_path


def write_json(write, name, doc):
    return write(name, json.dumps(doc))


def test_solve_perfection(files, capsys):
    write, _ = files
    constraints = write_json(write, "c.json", [{"type": "perfection_confidence", "theta": 1.0}])
    observation = write_json(write, "o.json", {"n": 100, "k": 0})
    objective = write_json(write, "obj.json", {"type": "future_reliability", "t": 100})
    code = main(
        ["solve", "--constraints", constraints, "--observation", observation,
         "--objective", objective, "--grid", "100"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["bound"] == 1.0
    assert out["solver_status"] == "optimal"
    assert out["witness"]["support"] == [0.0]


def test_solve_accepts_wrapped_documents_and_demand_log(files, capsys):
    write, _ = files
    constraints = write_json(write, "c.json", {"constraints": [{"type": "mean_bound", "m": 0.1}]})
    observation = write("log.csv", "index,outcome\n1,pass\n2,fail\n3,pass\n")
    objective = write_json(
        write, "obj.json", {"objective": {"type": "posterior_expected_pfd"}}
    )
    code = main(
        ["solve", "--constraints", constraints, "--observation", observation,
         "--objective", objective, "--grid", "100"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["observation"] == {"n": 3, "k": 1}


def test_solve_infeasible_names_subset(files, capsys):
    write, _ = files
    constraints = write_json(
        write,
        "c.json",
        [
            {"type": "confidence_bound", "epsilon": 0.1, "theta": 0.9},
            {"type": "mean_bound", "m": 0.005},
        ],
    )
    observation = write_json(write, "o.json", {"n": 10, "k": 0})
    objective = write_json(write, "obj.json", {"type": "posterior_expected_pfd"})
    code = main(
        ["solve", "--constraints", constraints, "--observation", observation,
         "--objective", objective, "--grid", "100"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "infeasible" in captured.err
    assert "ConfidenceBound" in captured.err and "MeanBound" in captured.err


def test_solve_malformed_json(files, capsys):
    write, _ = files
    constraints = write("c.json", "{not json")
    observation = write_json(write, "o.json", {"n": 1, "k": 0})
    objective = write_json(write, "obj.json", {"type": "posterior_expected_pfd"})
    code = main(
        ["solve", "--constraints", constraints, "--observation", observation,
         "--objective", objective]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "line 1" in captured.err


def test_solve_zero_evidence_distinct_message(files, capsys):
    write, _ = files
    constraints = write_json(write, "c.json", [{"type": "perfection_confidence", "theta": 1.0}])
    observation = write_json(write, "o.json", {"n": 10, "k": 1})
    objective = write_json(write, "obj.json", {"type": "posterior_expected_pfd"})
    code = main(
        ["solve", "--constraints", constraints, "--observation", observation,
         "--objective", objective, "--grid", "50"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "zero-evidence" in captured.err


def _solve_exit(write, capsys, constraints, observation, objective):
    code = main(
        ["solve", "--constraints", write_json(write, "c.json", constraints),
         "--observation", write_json(write, "o.json", observation),
         "--objective", write_json(write, "obj.json", objective), "--grid", "50"]
    )
    return code, capsys.readouterr()


_RELIABILITY = [{"type": "prior_reliability", "n0": 10, "gamma": 0.5}]
_EXPECTED_PFD = {"type": "posterior_expected_pfd"}


@pytest.mark.parametrize(
    "constraints, observation, objective, field",
    [
        (_RELIABILITY, {"n": 1000.9, "k": 0}, _EXPECTED_PFD, "n"),
        (_RELIABILITY, {"n": 1000, "k": 0.5}, _EXPECTED_PFD, "k"),
        (_RELIABILITY, {"n": True, "k": False}, _EXPECTED_PFD, "n"),
        (_RELIABILITY, {"n": 1000, "k": 0}, {"type": "future_reliability", "t": 99.5}, "t"),
        (_RELIABILITY, {"n": 1000, "k": 0}, {"type": "future_reliability", "t": True}, "t"),
        (
            [{"type": "prior_reliability", "n0": 10.7, "gamma": 0.5}],
            {"n": 1000, "k": 0},
            _EXPECTED_PFD,
            "n0",
        ),
    ],
    ids=[
        "fractional-n", "fractional-k", "boolean-counts", "fractional-t", "boolean-t", "fractional-n0"
    ],
)
def test_solve_rejects_malformed_counts(
    files, capsys, constraints, observation, objective, field
):
    write, _ = files
    code, captured = _solve_exit(write, capsys, constraints, observation, objective)
    assert code == 1
    assert f"{field} must be an integer count" in captured.err
    assert captured.out == ""


def test_solve_accepts_integral_float_counts(files, capsys):
    write, _ = files
    outputs = []
    for count in (int, float):
        constraints = [{"type": "prior_reliability", "n0": count(10), "gamma": 0.5}]
        observation = {"n": count(1000), "k": count(2)}
        objective = {"type": "future_reliability", "t": count(100)}
        code, captured = _solve_exit(write, capsys, constraints, observation, objective)
        assert code == 0
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]


def test_curve_theta_one_constant(files, capsys):
    write, tmp = files
    constraints = write_json(
        write, "c.json", [{"type": "confidence_bound", "epsilon": 0.01, "theta": 1.0}]
    )
    objective = write_json(write, "obj.json", {"type": "future_reliability", "t": 10})
    out_path = str(tmp / "curve.csv")
    code = main(
        ["curve", "--constraints", constraints, "--objective", objective,
         "--n-values", "10,100,1000", "--grid", "80", "--out", out_path]
    )
    assert code == 0
    lines = Path(out_path).read_text().strip().splitlines()
    assert lines[0] == "n,bound"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == pytest.approx([(1 - 0.01) ** 10] * 3, abs=1e-9)


def test_curve_monotone_nondecreasing(files, capsys):
    write, _ = files
    constraints = write_json(
        write, "c.json", [{"type": "confidence_bound", "epsilon": 0.001, "theta": 0.9}]
    )
    objective = write_json(write, "obj.json", {"type": "future_reliability", "t": 100})
    code = main(
        ["curve", "--constraints", constraints, "--objective", objective,
         "--n-values", "10,100,1000,10000", "--grid", "80"]
    )
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    values = [float(line.split(",")[1]) for line in out[1:]]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_prior_from_verification_intervals(files, capsys):
    write, _ = files
    coverage = write("cov.csv", "lo,hi\n0.0,0.5\n0.5,0.9\n")
    code = main(["prior-from-verification", "--coverage", coverage, "--theta", "0.8"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out[0]["type"] == "confidence_bound"
    assert out[0]["epsilon"] == pytest.approx(0.1, abs=1e-12)
    assert out[0]["theta"] == 0.8


def test_measure_pfd(files, capsys):
    write, _ = files
    dataset = write("d.csv", "point_id,weight,disagree\na,0.5,1\nb,0.3,0\nc,0.2,1\n")
    code = main(["measure", "--dataset", dataset, "--kind", "pfd"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["value"] == pytest.approx(0.7, abs=1e-12)


def test_measure_decomposition(files, capsys):
    write, _ = files
    doc = write_json(
        write,
        "dec.json",
        {"bayes_error": 0.01, "approximation_error": 0.02, "estimation_error": 0.03},
    )
    code = main(["measure", "--decomposition", doc])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["total_error"] == pytest.approx(0.06, abs=1e-15)


def test_gsn_validate_and_exit_codes(files, capsys):
    write, _ = files
    good = write_json(
        write,
        "case.json",
        {
            "root": "G1",
            "nodes": [
                {"id": "G1", "kind": "goal", "statement": "safe"},
                {"id": "S1", "kind": "strategy", "statement": "argue"},
                {"id": "G2", "kind": "goal", "statement": "reliable", "undeveloped": True},
            ],
            "supported_by": [["G1", "S1"], ["S1", "G2"]],
        },
    )
    assert main(["gsn", "validate", "--case", good]) == 0
    assert json.loads(capsys.readouterr().out) == []

    cyclic = write_json(
        write,
        "cyclic.json",
        {
            "root": "G1",
            "nodes": [
                {"id": "G1", "kind": "goal", "statement": "a"},
                {"id": "S1", "kind": "strategy", "statement": "s"},
            ],
            "supported_by": [["G1", "S1"], ["S1", "G1"]],
        },
    )
    assert main(["gsn", "validate", "--case", cyclic]) == 3
    violations = json.loads(capsys.readouterr().out)
    assert any(v["code"] == "cycle" for v in violations)


def test_gsn_render_deterministic_bytes(files, tmp_path):
    write, _ = files
    case = write_json(
        write,
        "case.json",
        {
            "root": "G1",
            "nodes": [
                {"id": "G1", "kind": "goal", "statement": "safe"},
                {"id": "S1", "kind": "strategy", "statement": "argue"},
                {"id": "G2", "kind": "goal", "statement": "done", "undeveloped": True},
            ],
            "supported_by": [["G1", "S1"], ["S1", "G2"]],
        },
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    outputs = []
    for run in range(2):
        out_path = tmp_path / f"render{run}.dot"
        proc = subprocess.run(
            [sys.executable, "-m", "relbound", "gsn", "render", "--case", case,
             "--out", str(out_path)],
            env=env,
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]


def test_gsn_evaluate(files, capsys):
    write, _ = files
    case = write_json(
        write,
        "case.json",
        {
            "root": "G1",
            "nodes": [
                {
                    "id": "G1",
                    "kind": "goal",
                    "statement": "reliable enough",
                    "claim_binding": {
                        "constraints": [{"type": "perfection_confidence", "theta": 1.0}],
                        "objective": {"type": "future_reliability", "t": 100},
                        "threshold": 0.99,
                        "comparison": ">=",
                    },
                },
                {"id": "Sn1", "kind": "solution", "statement": "operational data"},
            ],
            "supported_by": [["G1", "Sn1"]],
        },
    )
    observation = write_json(write, "o.json", {"n": 100, "k": 0})
    code = main(
        ["gsn", "evaluate", "--case", case, "--observation", observation, "--grid", "100"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out == {"G1": "satisfied"}


def test_gsn_evaluate_rejects_fractional_binding_count(files, capsys):
    write, _ = files
    case = write_json(
        write,
        "case.json",
        {
            "root": "G1",
            "nodes": [
                {
                    "id": "G1",
                    "kind": "goal",
                    "statement": "reliable enough",
                    "claim_binding": {
                        "constraints": [{"type": "perfection_confidence", "theta": 0.5}],
                        "objective": {"type": "future_reliability", "t": 99.5},
                        "threshold": 0.99,
                        "comparison": ">=",
                    },
                },
                {"id": "Sn1", "kind": "solution", "statement": "operational data"},
            ],
            "supported_by": [["G1", "Sn1"]],
        },
    )
    observation = write_json(write, "o.json", {"n": 100, "k": 0})
    code = main(
        ["gsn", "evaluate", "--case", case, "--observation", observation, "--grid", "100"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "t must be an integer count" in captured.err


def test_simulate_deterministic(files, capsys):
    outputs = []
    for _ in range(2):
        code = main(["simulate", "--pfd", "0.3", "--n", "20", "--seed", "42"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    lines = outputs[0].strip().splitlines()
    assert lines[0] == "index,outcome"
    assert len(lines) == 21


def test_audit_round_trip(files, capsys):
    write, _ = files
    constraints = write_json(write, "c.json", [{"type": "perfection_confidence", "theta": 1.0}])
    observation = write_json(write, "o.json", {"n": 50, "k": 0})
    objective = write_json(write, "obj.json", {"type": "future_reliability", "t": 10})
    code = main(
        ["audit", "--constraints", constraints, "--observation", observation,
         "--objective", objective, "--trials", "10", "--seed", "3", "--grid", "50"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["trials"] == 10
    assert out["violations"] == 0


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_audit_rejects_no_trials(files, capsys, trials):
    write, _ = files
    constraints = write_json(write, "c.json", [{"type": "perfection_confidence", "theta": 1.0}])
    observation = write_json(write, "o.json", {"n": 50, "k": 0})
    objective = write_json(write, "obj.json", {"type": "future_reliability", "t": 10})
    code = main(
        ["audit", "--constraints", constraints, "--observation", observation,
         "--objective", objective, "--trials", trials, "--seed", "3", "--grid", "50"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "trials must be at least 1" in captured.err
    assert captured.out == ""


def test_audit_without_margins_writes_strict_json(files, capsys, monkeypatch):
    from relbound import operational
    from relbound.errors import SamplingFailureError

    def failing_sampler(*args, **kwargs):
        raise SamplingFailureError("no feasible prior found")

    monkeypatch.setattr(operational, "sample_feasible_prior", failing_sampler)
    write, _ = files
    constraints = write_json(write, "c.json", [{"type": "mean_bound", "m": 0.1}])
    observation = write_json(write, "o.json", {"n": 50, "k": 0})
    objective = write_json(write, "obj.json", {"type": "future_reliability", "t": 10})
    code = main(
        ["audit", "--constraints", constraints, "--observation", observation,
         "--objective", objective, "--trials", "3", "--seed", "3", "--grid", "50"]
    )

    def reject_constant(name):
        raise ValueError(f"{name} is not JSON")

    out = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert code == 0
    assert out["worst_margin"] is None


def test_usage_error_exit_code(capsys):
    assert main(["solve"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 1
