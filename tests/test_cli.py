import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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
    assert code == 2
    # each constraint as its dataclass repr: MeanBound once printed as MeanBound(0.005,)
    assert capsys.readouterr().err == (
        "infeasible: no prior satisfies the subset "
        "{ConfidenceBound(epsilon=0.1, theta=0.9), MeanBound(m=0.005)}\n"
    )


#: feasible only within the simplex's phase-1 tolerance, in the form the
#: old feasibility gate read: it admitted the set, every window refused it,
#: and ``solve`` reported a zero-evidence error
_GATE_ADMITTED = [
    {"type": "perfection_confidence", "theta": 0.32835334298732144},
    {"type": "prior_reliability", "n0": 115580, "gamma": 1.0},
]


def test_solve_reports_a_gate_admitted_set_infeasible(files, capsys):
    write, _ = files
    constraints = write_json(write, "c.json", _GATE_ADMITTED)
    observation = write_json(write, "o.json", {"n": 752, "k": 48})
    objective = write_json(write, "obj.json", {"type": "posterior_expected_pfd"})
    code = main(
        ["solve", "--constraints", constraints, "--observation", observation,
         "--objective", objective, "--grid", "1166"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        "infeasible: no prior satisfies the subset "
        "{PerfectionConfidence(theta=0.32835334298732144), PriorReliability(n0=115580, gamma=1.0)}\n"
    )
    assert json.loads(captured.out)["solver_status"] == "infeasible"


def test_gsn_evaluate_a_gate_admitted_set_is_unevaluable(files, capsys):
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
                        "constraints": _GATE_ADMITTED,
                        "objective": {"type": "posterior_expected_pfd"},
                        "threshold": 0.1,
                        "comparison": "<=",
                    },
                },
                {"id": "Sn1", "kind": "solution", "statement": "operational data"},
            ],
            "supported_by": [["G1", "Sn1"]],
        },
    )
    observation = write_json(write, "o.json", {"n": 752, "k": 48})
    code = main(
        ["gsn", "evaluate", "--case", case, "--observation", observation, "--grid", "1166"]
    )
    assert code == 3
    assert json.loads(capsys.readouterr().out) == {"G1": "unevaluable: infeasible"}


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


def test_solve_best_case_bound_exits_zero(files, capsys):
    # the point mass at 0 is admissible and has likelihood 1
    write, _ = files
    constraints = write_json(
        write, "c.json",
        [{"type": "mean_bound", "m": 0.0}, {"type": "perfection_confidence", "theta": 1.0}],
    )
    observation = write_json(write, "o.json", {"n": 10, "k": 0})
    objective = write_json(write, "obj.json", {"type": "posterior_expected_pfd"})
    code = main(
        ["solve", "--constraints", constraints, "--observation", observation,
         "--objective", objective, "--grid", "200"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["bound"] == 0.0
    assert out["witness"] == {"support": [0.0], "masses": [1.0]}


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


@pytest.mark.parametrize(
    "constraints, observation, objective, field",
    [
        (_RELIABILITY, {"n": 1000, "k": 0}, {"type": "future_reliability", "t": 10**400}, "t"),
        (_RELIABILITY, {"n": 10**400, "k": 0}, _EXPECTED_PFD, "n"),
        (
            [{"type": "prior_reliability", "n0": 10**400, "gamma": 0.5}],
            {"n": 1000, "k": 0},
            _EXPECTED_PFD,
            "n0",
        ),
    ],
    ids=["huge-t", "huge-n", "huge-n0"],
)
def test_solve_rejects_counts_beyond_the_float_range(
    files, capsys, constraints, observation, objective, field
):
    # each of these once parsed and then crashed the solve with an OverflowError
    write, _ = files
    code, captured = _solve_exit(write, capsys, constraints, observation, objective)
    assert code == 1
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("parse error: ")
    assert f"{field} must be a count within the float range" in line


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


@pytest.mark.parametrize("n_values", [",", "", " , ,"])
def test_curve_without_counts_is_a_usage_error(files, capsys, n_values):
    write, _ = files
    constraints = write_json(write, "c.json", [{"type": "mean_bound", "m": 0.01}])
    objective = write_json(write, "obj.json", {"type": "future_reliability", "t": 10})
    code = main(
        ["curve", "--constraints", constraints, "--objective", objective,
         "--n-values", n_values, "--grid", "80"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage error: --n-values")


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


def test_measure_rejects_nan_weight(files, capsys):
    write, _ = files
    dataset = write("d.csv", "point_id,weight,disagree\na,nan,1\nb,1.0,0\n")
    code = main(["measure", "--dataset", dataset, "--kind", "pfd"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""


def test_measure_rejects_nan_decomposition(files, capsys):
    write, _ = files
    doc = write(
        "dec.json",
        '{"bayes_error": NaN, "approximation_error": 0.02, "estimation_error": 0.03}',
    )
    code = main(["measure", "--decomposition", doc])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""


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



def test_gsn_render_invalid_case_lists_violations(files, capsys):
    write, _ = files
    case = write_json(
        write,
        "case.json",
        {
            "root": "G1",
            "nodes": [
                {"id": "G1", "kind": "goal", "statement": "safe"},
                {"id": "S1", "kind": "strategy", "statement": "argue"},
                {"id": "G2", "kind": "goal", "statement": "reliable"},
            ],
            "supported_by": [["G1", "S1"]],
        },
    )
    assert main(["gsn", "render", "--case", case]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "[unsupported-goal] G2: goal is neither undeveloped nor supported by a strategy or solution",
        "[childless-strategy] S1: strategy supports no goals",
    ]


def test_gsn_evaluate_needs_an_observation(files, capsys):
    write, _ = files
    case = write_json(
        write,
        "case.json",
        {
            "root": "G1",
            "nodes": [{"id": "G1", "kind": "goal", "statement": "safe", "undeveloped": True}],
        },
    )
    assert main(["gsn", "evaluate", "--case", case]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: gsn evaluate needs --observation\n"

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


@pytest.mark.parametrize(
    "objective, comparison",
    [({"type": "posterior_expected_pfd"}, ">="), ({"type": "future_reliability", "t": 10}, "<=")],
    ids=["pfd-at-least", "reliability-at-most"],
)
def test_gsn_evaluate_rejects_a_claim_pointing_the_wrong_way(files, capsys, objective, comparison):
    # judged against the worst case, such a claim held whenever some
    # admissible prior met it
    write, _ = files
    binding = {
        "constraints": [{"type": "mean_bound", "m": 0.01}],
        "objective": objective,
        "threshold": 0.5,
        "comparison": comparison,
    }
    case = write_json(
        write,
        "case.json",
        {
            "root": "G1",
            "nodes": [
                {"id": "G1", "kind": "goal", "statement": "s", "claim_binding": binding},
                {"id": "Sn1", "kind": "solution", "statement": "operational data"},
            ],
            "supported_by": [["G1", "Sn1"]],
        },
    )
    observation = write_json(write, "o.json", {"n": 100, "k": 0})
    code = main(["gsn", "evaluate", "--case", case, "--observation", observation])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("parse error: bad claim binding: ")
    assert line.endswith(f"must use {'<=' if comparison == '>=' else '>='!r}, got {comparison!r}")


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


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--n", "-5"], "n must be at least 0, got -5"),
        (["--n", "5", "--seed", "-1"], "seed must be at least 0, got -1"),
    ],
    ids=["negative-n", "negative-seed"],
)
def test_simulate_rejects_negative_counts(capsys, extra, message):
    code = main(["simulate", "--pfd", "0.3", *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert f"error: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--seed", "-1"], "seed must be at least 0, got -1"),
        (["--grid", "-4"], "resolution must be at least 2, got -4"),
    ],
    ids=["negative-seed", "negative-grid"],
)
def test_audit_rejects_negative_counts(files, capsys, extra, message):
    write, _ = files
    constraints = write_json(write, "c.json", [{"type": "mean_bound", "m": 0.1}])
    observation = write_json(write, "o.json", {"n": 50, "k": 0})
    objective = write_json(write, "obj.json", {"type": "future_reliability", "t": 10})
    code = main(
        ["audit", "--constraints", constraints, "--observation", observation,
         "--objective", objective, "--trials", "3", *extra]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert f"error: {message}" in captured.err
    assert captured.out == ""


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

    def failing_sampler(constraints, grid, seeds, max_attempts=operational.MAX_ATTEMPTS):
        yield np.zeros((len(seeds), 1), dtype=np.intp), np.zeros((len(seeds), 1))

    monkeypatch.setattr(operational, "sample_feasible_masses", failing_sampler)
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


_GOOD_CASE = {
    "root": "G1",
    "nodes": [{"id": "G1", "kind": "goal", "statement": "safe", "undeveloped": True}],
}
_SOLVE = ["solve", "--observation", "o.json", "--objective", "obj.json", "--constraints", "c.json"]
_SOLVE_DOCS = {"o.json": {"n": 10, "k": 0}, "obj.json": _EXPECTED_PFD}
_FROM_COVERAGE = ["prior-from-verification", "--coverage", "cov.csv", "--profile", "p.json",
                  "--theta", "0.9"]
_VALIDATE = ["gsn", "validate", "--case", "case.json"]


def _main_with_docs(files, argv, docs):
    """``main(argv)`` with each file name in ``docs`` written (text as is,
    anything else as JSON) and replaced in ``argv`` by its path."""
    write, _ = files
    paths = {
        name: write(name, doc) if isinstance(doc, str) else write_json(write, name, doc)
        for name, doc in docs.items()
    }
    return main([paths.get(arg, arg) for arg in argv])


@pytest.mark.parametrize(
    "argv, docs",
    [
        (_SOLVE, {**_SOLVE_DOCS, "c.json": 5}),
        (_SOLVE, {**_SOLVE_DOCS, "c.json": [{"type": "mean_bound", "m": 10**400}]}),
        (_VALIDATE, {"case.json": {**_GOOD_CASE, "nodes": ["G1"]}}),
        (_FROM_COVERAGE, {"cov.csv": "lo,hi\n0.0,0.5\n", "p.json": [1]}),
        (_FROM_COVERAGE, {"cov.csv": "point_id,covered\na,1\n", "p.json": [1]}),
        (["measure", "--decomposition", "d.json"], {"d.json": [1]}),
        (
            ["measure", "--decomposition", "d.json"],
            {"d.json": {"bayes_error": 0.0, "approximation_error": 0.0, "estimation_error": None}},
        ),
        (_VALIDATE + ["--modules", "m.json"], {"case.json": _GOOD_CASE, "m.json": 5}),
        (_VALIDATE + ["--modules", "m.json"], {"case.json": _GOOD_CASE, "m.json": {"A": 1}}),
    ],
    ids=[
        "constraints-number", "constraints-huge-number", "case-node-string", "density-list",
        "profile-list", "decomposition-list", "decomposition-null", "modules-number",
        "modules-object",
    ],
)
def test_malformed_document_is_one_parse_error(files, capsys, argv, docs):
    # each of these once left main with a traceback, or (modules-object)
    # was read as the registry ("A",)
    code = _main_with_docs(files, argv, docs)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("parse error: ")


def _bound_case(threshold):
    binding = {
        "constraints": [{"type": "perfection_confidence", "theta": 1.0}],
        "objective": {"type": "future_reliability", "t": 100},
        "threshold": threshold,
        "comparison": ">=",
    }
    return {
        "root": "G1",
        "nodes": [
            {"id": "G1", "kind": "goal", "statement": "s", "claim_binding": binding},
            {"id": "Sn1", "kind": "solution", "statement": "operational data"},
        ],
        "supported_by": [["G1", "Sn1"]],
    }


_EVALUATE = ["gsn", "evaluate", "--case", "case.json", "--observation", "o.json", "--grid", "50"]
_DECOMPOSITION = {"bayes_error": 0.0, "approximation_error": 0.0, "estimation_error": 0.0}


@pytest.mark.parametrize(
    "argv, docs, field, value",
    [
        (_SOLVE, {**_SOLVE_DOCS, "c.json": [{"type": "mean_bound", "m": True}]}, "m", True),
        (
            _SOLVE,
            {**_SOLVE_DOCS, "c.json": [{"type": "confidence_bound", "epsilon": 0.1, "theta": "0.5"}]},
            "theta",
            "0.5",
        ),
        (
            _SOLVE,
            {**_SOLVE_DOCS, "c.json": [{"type": "prior_reliability", "n0": 10, "gamma": None}]},
            "gamma",
            None,
        ),
        (
            _SOLVE,
            {**_SOLVE_DOCS, "c.json": [], "obj.json": {"type": "posterior_confidence", "p_req": False}},
            "p_req",
            False,
        ),
        (_EVALUATE, {"case.json": _bound_case("0.5"), "o.json": {"n": 10, "k": 0}}, "threshold", "0.5"),
        (
            ["measure", "--decomposition", "d.json"],
            {"d.json": {**_DECOMPOSITION, "approximation_error": True}},
            "approximation_error",
            True,
        ),
        (
            _FROM_COVERAGE,
            {"cov.csv": "lo,hi\n0.0,0.5\n", "p.json": {"kind": "piecewise", "pieces": [[0, "1", 1]]}},
            "piece",
            "1",
        ),
        (
            _FROM_COVERAGE,
            {"cov.csv": "point_id,covered\na,1\n", "p.json": {"kind": "discrete", "weights": {"a": True}}},
            "weight",
            True,
        ),
    ],
    ids=[
        "boolean-m", "string-theta", "null-gamma", "boolean-p_req", "string-threshold",
        "boolean-decomposition", "string-piece", "boolean-weight",
    ],
)
def test_number_fields_refuse_booleans_and_strings(files, capsys, argv, docs, field, value):
    # each of these but null-gamma once parsed, a boolean as 0.0 or 1.0
    # and a string as the number it spells, and the command exited 0;
    # null-gamma's parse error named no field
    code = _main_with_docs(files, argv, docs)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("parse error: ")
    assert line.endswith(f"{field} must be a number, got {value!r}")


def test_number_fields_accept_json_integers(files, capsys):
    write, _ = files
    outputs = []
    for number in (int, float):
        constraints = [
            {"type": "confidence_bound", "epsilon": number(1), "theta": number(1)},
            {"type": "perfection_confidence", "theta": number(0)},
            {"type": "mean_bound", "m": number(1)},
        ]
        objective = {"type": "posterior_confidence", "p_req": number(1)}
        code, captured = _solve_exit(write, capsys, constraints, {"n": 10, "k": 0}, objective)
        assert code == 0
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    doc = write_json(write, "dec.json", {key: 0 for key in _DECOMPOSITION})
    assert main(["measure", "--decomposition", doc]) == 0
    assert json.loads(capsys.readouterr().out)["total_error"] == 0.0


def test_gsn_evaluate_malformed_case_lists_violations(files, capsys):
    # it once exited 1 with "error: case is not well formed: ..."
    write, _ = files
    case = write_json(
        write,
        "case.json",
        {"root": "G1", "nodes": [{"id": "G1", "kind": "goal", "statement": "safe"}]},
    )
    observation = write_json(write, "o.json", {"n": 10, "k": 0})
    assert main(["gsn", "evaluate", "--case", case, "--observation", observation]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "[unsupported-goal] G1: goal is neither undeveloped nor supported by a strategy or solution"
    ]


def test_module_registry_list_of_strings_accepted(files, capsys):
    write, _ = files
    case = write_json(write, "case.json", _GOOD_CASE)
    modules = write_json(write, "m.json", ["platform"])
    assert main(["gsn", "validate", "--case", case, "--modules", modules]) == 0
    assert json.loads(capsys.readouterr().out) == []
