import random

import numpy as np
import pytest

from relbound import solver
from relbound.errors import ParseError, ZeroEvidenceError
from relbound.gsn import (
    SATISFIED,
    UNSATISFIED,
    GsnNode,
    QuantClaim,
    SafetyCase,
    _evaluate_binding,
    case_from_dict,
    case_to_dict,
    claim_from_dict,
    evaluate_case,
    export_dot,
    validate,
)
from relbound.inference import (
    FutureReliability,
    Observation,
    PosteriorConfidence,
    PosteriorExpectedPfd,
)
from relbound.priors import (
    ConfidenceBound,
    MeanBound,
    PerfectionConfidence,
    PriorReliability,
    build_grid,
)


def goal(node_id, statement="a claim", **kwargs):
    return GsnNode(id=node_id, kind="goal", statement=statement, **kwargs)


def make_case(nodes, supported_by, in_context_of=(), root="G1"):
    return SafetyCase(
        nodes=tuple(nodes),
        supported_by=tuple(supported_by),
        in_context_of=tuple(in_context_of),
        root=root,
    )


def minimal_chain():
    # G1 <- S1 <- G2 <- Sn1, the smallest well-formed shape
    return make_case(
        [
            goal("G1"),
            GsnNode("S1", "strategy", "argue over reliability"),
            goal("G2"),
            GsnNode("Sn1", "solution", "test evidence"),
        ],
        [("G1", "S1"), ("S1", "G2"), ("G2", "Sn1")],
    )


def top_level_shape():
    """Root goal split by a strategy into a developed reliability goal and
    an undeveloped goal for the remaining properties, with context."""
    claim = QuantClaim(
        constraints=(ConfidenceBound(1e-3, 0.9),),
        objective=FutureReliability(100),
        threshold=0.85,
        comparison=">=",
    )
    return make_case(
        [
            goal("G1", "the component is sufficiently safe"),
            GsnNode("S1", "strategy", "argue over all safety properties"),
            goal("G2", "reliability meets the target", claim_binding=claim),
            goal("G3", "other properties hold", undeveloped=True),
            GsnNode("Sn1", "solution", "operational evidence via conservative bound"),
            GsnNode("C1", "context", "operational profile fixed"),
            GsnNode("A1", "assumption", "demands are independent"),
        ],
        [("G1", "S1"), ("S1", "G2"), ("S1", "G3"), ("G2", "Sn1")],
        [("G1", "C1"), ("G2", "A1")],
    )


class TestNodeInvariants:
    def test_undeveloped_only_on_goals(self):
        with pytest.raises(ValueError):
            GsnNode("S1", "strategy", "x", undeveloped=True)

    def test_away_goal_needs_module_ref(self):
        with pytest.raises(ValueError):
            GsnNode("AG1", "away-goal", "x")

    def test_claim_binding_only_on_goals(self):
        claim = QuantClaim((MeanBound(0.1),), FutureReliability(1), 0.5, ">=")
        with pytest.raises(ValueError):
            GsnNode("Sn1", "solution", "x", claim_binding=claim)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            make_case([goal("G1"), goal("G1")], [])


class TestValidate:
    def test_minimal_chain_clean(self):
        assert validate(minimal_chain()) == []

    def test_top_level_shape_clean(self):
        assert validate(top_level_shape()) == []

    def test_cycle_detected(self):
        case = make_case(
            [goal("G1"), GsnNode("S1", "strategy", "s"), goal("G2"), GsnNode("S2", "strategy", "s")],
            [("G1", "S1"), ("S1", "G2"), ("G2", "S2"), ("S2", "G1")],
        )
        codes = [v.code for v in validate(case)]
        assert "cycle" in codes

    def test_undeveloped_goal_without_support_permitted(self):
        case = make_case(
            [goal("G1"), GsnNode("S1", "strategy", "s"), goal("G3", undeveloped=True)],
            [("G1", "S1"), ("S1", "G3")],
        )
        assert validate(case) == []

    def test_unsupported_goal_flagged(self):
        case = make_case([goal("G1")], [])
        codes = [v.code for v in validate(case)]
        assert codes == ["unsupported-goal"]

    def test_strategy_as_leaf_flagged(self):
        case = make_case([goal("G1"), GsnNode("S1", "strategy", "s")], [("G1", "S1")])
        codes = [v.code for v in validate(case)]
        assert "childless-strategy" in codes

    def test_strategy_with_solution_child_flagged(self):
        case = make_case(
            [goal("G1"), GsnNode("S1", "strategy", "s"), GsnNode("Sn1", "solution", "e")],
            [("G1", "S1"), ("S1", "Sn1")],
        )
        codes = [v.code for v in validate(case)]
        assert "strategy-bad-child" in codes

    def test_solution_must_be_leaf(self):
        case = make_case(
            [goal("G1"), GsnNode("Sn1", "solution", "e"), goal("G2", undeveloped=True)],
            [("G1", "Sn1"), ("Sn1", "G2")],
        )
        codes = [v.code for v in validate(case)]
        assert "solution-not-leaf" in codes

    def test_dangling_away_goal(self):
        case = make_case(
            [goal("G1"), GsnNode("AG1", "away-goal", "claim", module_ref="platform")],
            [("G1", "AG1")],
        )
        codes = [v.code for v in validate(case)]
        assert "unresolved-away-goal" in codes
        assert validate(case, module_registry={"platform"}) == []

    def test_context_on_supported_by_edge(self):
        case = make_case(
            [goal("G1"), GsnNode("S1", "strategy", "s"), goal("G2"),
             GsnNode("Sn1", "solution", "e"), GsnNode("C1", "context", "c")],
            [("G1", "S1"), ("S1", "G2"), ("G2", "Sn1"), ("G1", "C1")],
        )
        codes = [v.code for v in validate(case)]
        assert "context-on-support-edge" in codes

    def test_context_edge_direction(self):
        case = make_case(
            [goal("G1"), GsnNode("S1", "strategy", "s"), goal("G2"),
             GsnNode("Sn1", "solution", "e"), GsnNode("C1", "context", "c")],
            [("G1", "S1"), ("S1", "G2"), ("G2", "Sn1")],
            [("C1", "G1")],
        )
        codes = [v.code for v in validate(case)]
        assert "bad-context-edge" in codes

    def test_unknown_edge_endpoint(self):
        case = make_case([goal("G1")], [("G1", "GHOST")])
        codes = [v.code for v in validate(case)]
        assert codes == ["unknown-node"]

    def test_root_must_be_goal(self):
        case = make_case(
            [GsnNode("S1", "strategy", "s"), goal("G2", undeveloped=True)],
            [("S1", "G2")],
            root="S1",
        )
        codes = [v.code for v in validate(case)]
        assert "root-not-goal" in codes


class TestEvaluate:
    def test_bound_goal_satisfied_by_perfection(self):
        claim = QuantClaim(
            constraints=(PerfectionConfidence(1.0),),
            objective=FutureReliability(100),
            threshold=0.99,
            comparison=">=",
        )
        case = make_case(
            [goal("G1", claim_binding=claim), GsnNode("Sn1", "solution", "evidence")],
            [("G1", "Sn1")],
        )
        statuses = evaluate_case(case, Observation(100, 0), resolution=100)
        assert statuses["G1"] == "satisfied"

    def test_infeasible_binding_is_unevaluable(self):
        claim = QuantClaim(
            constraints=(ConfidenceBound(0.1, 0.9), MeanBound(0.005)),
            objective=FutureReliability(10),
            threshold=0.5,
            comparison=">=",
        )
        case = make_case(
            [goal("G1", claim_binding=claim), GsnNode("Sn1", "solution", "evidence")],
            [("G1", "Sn1")],
        )
        statuses = evaluate_case(case, Observation(100, 0), resolution=100)
        assert statuses["G1"] == "unevaluable: infeasible"

    def test_failing_leaf_propagates_to_root(self):
        impossible = QuantClaim(
            constraints=(ConfidenceBound(0.5, 0.5),),
            objective=FutureReliability(1000),
            threshold=0.999,
            comparison=">=",
        )
        case = make_case(
            [
                goal("G1"),
                GsnNode("S1", "strategy", "split"),
                goal("G2", claim_binding=impossible),
                goal("G4"),
                GsnNode("Sn1", "solution", "evidence"),
                GsnNode("Sn2", "solution", "evidence"),
            ],
            [("G1", "S1"), ("S1", "G2"), ("S1", "G4"), ("G2", "Sn1"), ("G4", "Sn2")],
        )
        statuses = evaluate_case(case, Observation(100, 0), resolution=100)
        assert statuses["G2"] == "unsatisfied"
        assert statuses["G4"] == "satisfied"
        assert statuses["G1"] == "unsatisfied"

    def test_undeveloped_goal_reported_and_blocks_parent(self):
        statuses = evaluate_case(top_level_shape(), Observation(5000, 0), resolution=100)
        assert statuses["G3"] == "undeveloped"
        assert statuses["G2"] == "satisfied"
        assert statuses["G1"] == "unsatisfied"  # conjunction is conservative

    def test_context_edges_do_not_change_statuses(self):
        base = top_level_shape()
        stripped = SafetyCase(base.nodes, base.supported_by, (), base.root)
        obs = Observation(5000, 0)
        assert evaluate_case(base, obs, resolution=100) == evaluate_case(
            stripped, obs, resolution=100
        )

    def test_malformed_case_rejected(self):
        case = make_case([goal("G1")], [])
        with pytest.raises(ValueError, match="unsupported-goal"):
            evaluate_case(case, Observation(1, 0))


def _solved_status(claim, obs, resolution):
    """The goal status read off a full ``solve``, as the bound is reported."""
    grid = build_grid(claim.constraints, claim.objective, resolution)
    try:
        result = solver.solve(claim.constraints, obs, claim.objective, grid)
    except ZeroEvidenceError:
        return None, "unevaluable: zero-evidence"
    if result.solver_status == solver.STATUS_INFEASIBLE:
        return None, "unevaluable: infeasible"
    return result.bound, SATISFIED if claim.holds(result.bound) else UNSATISFIED


def _seeded_claims(count, seed):
    """``count`` seeded ``(constraints, objective, comparison, obs)``, each
    objective kind in turn, with one to three constraints."""
    rng = random.Random(seed)
    kinds = [
        lambda: MeanBound(10 ** rng.uniform(-6, -1)),
        lambda: ConfidenceBound(10 ** rng.uniform(-6, -1), rng.choice((1.0, rng.random()))),
        lambda: PerfectionConfidence(rng.choice((0.0, 1.0, rng.random()))),
        lambda: PriorReliability(int(10 ** rng.uniform(0, 5)), rng.random()),
    ]
    for i in range(count):
        constraints = tuple(make() for make in rng.sample(kinds, rng.randint(1, 3)))
        objective, comparison = (
            (PosteriorExpectedPfd(), "<="),
            (PosteriorConfidence(10 ** rng.uniform(-5, -1)), ">="),
            (FutureReliability(int(10 ** rng.uniform(0, 4))), ">="),
        )[i % 3]
        yield constraints, objective, comparison, Observation(int(10 ** rng.uniform(2, 6)), i % 4)


def _bound_goals_case(claims):
    """A well-formed case: root G0 argued over one goal per claim."""
    nodes = [goal("G0"), GsnNode("S0", "strategy", "argue over each claim")]
    edges = [("G0", "S0")]
    for i, claim in enumerate(claims, 1):
        nodes += [goal(f"G{i}", claim_binding=claim), GsnNode(f"Sn{i}", "solution", "bound")]
        edges += [("S0", f"G{i}"), (f"G{i}", f"Sn{i}")]
    return make_case(nodes, edges, root="G0")


class TestDecisionFromRunningBest:
    """A bound goal stops at the first running best that refutes its
    claim; its status is still the one the full solve's bound gives."""

    RESOLUTION = 150

    def test_statuses_match_the_full_solve(self):
        seen = set()
        for constraints, objective, comparison, obs in _seeded_claims(45, 3):
            base = QuantClaim(constraints, objective, 0.5, comparison)
            bound, _ = _solved_status(base, obs, self.RESOLUTION)
            thresholds = [0.0, 1.0]
            if bound is not None:
                thresholds += [bound, *(np.nextafter(bound, edge) for edge in (0.0, 1.0))]
            claims = [QuantClaim(constraints, objective, float(t), comparison) for t in thresholds]
            statuses = evaluate_case(_bound_goals_case(claims), obs, resolution=self.RESOLUTION)
            for i, claim in enumerate(claims, 1):
                expected = _solved_status(claim, obs, self.RESOLUTION)[1]
                assert statuses[f"G{i}"] == expected, (claim, obs)
                seen.add((comparison, expected))
        outcomes = {SATISFIED, UNSATISFIED, "unevaluable: infeasible", "unevaluable: zero-evidence"}
        assert {status for _, status in seen} == outcomes
        assert {comparison for comparison, _ in seen} == {"<=", ">="}

    def test_infeasible_and_zero_evidence_bindings(self):
        infeasible = QuantClaim(
            (ConfidenceBound(0.1, 0.9), MeanBound(0.005)), PosteriorExpectedPfd(), 0.5, "<="
        )
        # all prior mass on pfd 0, which cannot fail
        no_evidence = QuantClaim((PerfectionConfidence(1.0),), FutureReliability(10), 0.0, ">=")
        statuses = evaluate_case(
            _bound_goals_case([infeasible, no_evidence]), Observation(100, 1), resolution=100
        )
        assert statuses["G1"] == "unevaluable: infeasible"
        assert statuses["G2"] == "unevaluable: zero-evidence"

    #: four windows, deepest first; the last three admit a candidate,
    #: reading 0.6498, 0.7113 and 0.7415, so the running best reads 0.6498
    #: from the second window on
    INPUT = (
        (ConfidenceBound(1e-4, 0.9), PerfectionConfidence(0.3), MeanBound(2e-3)),
        FutureReliability(1000),
        Observation(100_000, 3),
    )

    @staticmethod
    def count_calls(monkeypatch, name):
        """A list that grows by one at each call of ``solver.<name>``."""
        calls = []
        function = getattr(solver, name)

        def counting(*args):
            calls.append(None)
            return function(*args)

        monkeypatch.setattr(solver, name, counting)
        return calls

    def test_refuted_goal_runs_fewer_windows(self, monkeypatch):
        constraints, objective, obs = self.INPUT
        calls = self.count_calls(monkeypatch, "_window_masses")
        solver.solve(constraints, obs, objective, build_grid(constraints, objective, 500))
        full = len(calls)
        # 0.8 is refuted by the second window's 0.6498
        calls.clear()
        claim = QuantClaim(constraints, objective, 0.8, ">=")
        assert _evaluate_binding(claim, obs, 500) == UNSATISFIED
        assert len(calls) == 2 < full
        # 0.6 holds, so every window runs
        calls.clear()
        claim = QuantClaim(constraints, objective, 0.6, ">=")
        assert _evaluate_binding(claim, obs, 500) == SATISFIED
        assert len(calls) == full == 4

    #: three windows, deepest first; the deepest admits 0.6498, the bound
    DEEPEST_REFUTES = (
        (ConfidenceBound(1e-4, 0.9), PerfectionConfidence(0.3)),
        FutureReliability(1000),
        Observation(100_000, 3),
    )

    def test_refuted_goal_runs_only_its_deepest_window(self, monkeypatch):
        constraints, objective, obs = self.DEEPEST_REFUTES
        levels = self.count_calls(monkeypatch, "_deepest_dominant_level")
        windows = self.count_calls(monkeypatch, "_window_masses")
        # 0.7 is refuted by the deepest window, which runs first
        claim = QuantClaim(constraints, objective, 0.7, ">=")
        assert _evaluate_binding(claim, obs, 500) == UNSATISFIED
        assert (len(windows), len(levels)) == (1, 1)
        # 0.6 holds, so every window runs, and the level is searched once
        windows.clear()
        levels.clear()
        claim = QuantClaim(constraints, objective, 0.6, ">=")
        assert _evaluate_binding(claim, obs, 500) == SATISFIED
        assert (len(windows), len(levels)) == (3, 1)


class TestClaimDirection:
    """A claim must point the objective's conservative way."""

    @pytest.mark.parametrize(
        "objective, wrong",
        [(PosteriorExpectedPfd(), ">="), (PosteriorConfidence(1e-3), "<="), (FutureReliability(10), "<=")],
    )
    def test_wrong_way_refused(self, objective, wrong):
        with pytest.raises(ValueError, match="must use"):
            QuantClaim((MeanBound(0.1),), objective, 0.5, wrong)
        doc = QuantClaim(
            (MeanBound(0.1),), objective, 0.5, "<=" if wrong == ">=" else ">="
        ).to_dict()
        with pytest.raises(ParseError, match="bad claim binding: .* must use"):
            claim_from_dict({**doc, "comparison": wrong})


class TestExportDot:
    def test_single_goal_graph(self):
        case = make_case([goal("G1", undeveloped=True)], [])
        text = export_dot(case)
        assert text.startswith("digraph safety_case {")
        assert '"G1"' in text
        assert "(undeveloped)" in text

    def test_shape_conventions(self):
        text = export_dot(top_level_shape())
        assert '"G1" [shape=box,' in text
        assert '"S1" [shape=parallelogram,' in text
        assert '"Sn1" [shape=circle,' in text
        assert '"C1" [shape=box, style=rounded,' in text

    def test_counts_match_input(self):
        case = top_level_shape()
        text = export_dot(case)
        assert text.count("shape=") == len(case.nodes)
        assert text.count("->") == len(case.supported_by) + len(case.in_context_of)

    def test_byte_deterministic(self):
        case = top_level_shape()
        assert export_dot(case) == export_dot(case)

    def test_node_order_invariant(self):
        case = top_level_shape()
        shuffled = SafetyCase(
            tuple(reversed(case.nodes)), case.supported_by, case.in_context_of, case.root
        )
        assert export_dot(case) == export_dot(shuffled)

    def test_statement_escaping(self):
        case = make_case(
            [goal("G1", 'say "hi"\nthen stop', undeveloped=True)], []
        )
        text = export_dot(case)
        assert '\\"hi\\"' in text
        assert "\\n" in text

    def test_id_escaping(self):
        case = make_case(
            [
                goal('G"1'),
                GsnNode("S\\1", "strategy", "argue"),
                goal("G2", undeveloped=True),
                GsnNode('C"1', "context", "profile"),
            ],
            [('G"1', "S\\1"), ("S\\1", "G2")],
            [('G"1', 'C"1')],
            root='G"1',
        )
        lines = export_dot(case).splitlines()
        assert '  "G\\"1" [shape=box, label="G\\"1\\na claim"];' in lines
        assert '  "G\\"1" -> "S\\\\1";' in lines
        assert '  "S\\\\1" -> "G2";' in lines
        assert '  "G\\"1" -> "C\\"1" [style=dashed, arrowhead=empty];' in lines


def deep_chain(goals, solved=True):
    """G0 <- S0 <- G1 <- ... <- G(goals-1), one strategy between each pair
    of goals; the last goal rests on a solution, or is undeveloped."""
    nodes, edges = [], []
    for i in range(goals - 1):
        nodes += [goal(f"G{i}"), GsnNode(f"S{i}", "strategy", "argue")]
        edges += [(f"G{i}", f"S{i}"), (f"S{i}", f"G{i + 1}")]
    last = f"G{goals - 1}"
    if solved:
        nodes += [goal(last), GsnNode("Sn", "solution", "evidence")]
        edges.append((last, "Sn"))
    else:
        nodes.append(goal(last, undeveloped=True))
    return make_case(nodes, edges, root="G0")


class TestDeepCase:
    """A chain deeper than the interpreter's recursion limit."""

    GOALS = 2000

    def test_validate(self):
        assert validate(deep_chain(self.GOALS)) == []

    def test_cycle_path(self):
        case = deep_chain(self.GOALS)
        back_edge = (f"G{self.GOALS - 1}", "G0")
        (violation,) = validate(make_case(case.nodes, case.supported_by + (back_edge,), root="G0"))
        assert violation.code == "cycle"
        path = violation.message.removeprefix("supported_by cycle: ").split(" -> ")
        assert path[0] == path[-1] == "G0"
        assert len(path) == 2 * self.GOALS

    def test_evaluate(self):
        statuses = evaluate_case(deep_chain(self.GOALS), Observation(1, 0))
        assert statuses == {f"G{i}": "satisfied" for i in range(self.GOALS)}

    def test_undeveloped_bottom_leaves_every_goal_above_unsatisfied(self):
        statuses = evaluate_case(deep_chain(self.GOALS, solved=False), Observation(1, 0))
        assert statuses.pop(f"G{self.GOALS - 1}") == "undeveloped"
        assert set(statuses.values()) == {"unsatisfied"}


class TestJsonRoundtrip:
    def test_roundtrip_preserves_case(self):
        case = top_level_shape()
        again = case_from_dict(case_to_dict(case))
        assert again == case

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
    def test_undeveloped_must_be_a_boolean(self, flag):
        doc = case_to_dict(minimal_chain())
        (node_doc,) = [n for n in doc["nodes"] if n["id"] == "G2"]
        node_doc["undeveloped"] = flag
        with pytest.raises(ParseError, match="undeveloped"):
            case_from_dict(doc)

    @pytest.mark.parametrize("field", ["id", "kind", "statement", "module_ref"])
    @pytest.mark.parametrize("value", [7, ["G2"], True])
    def test_node_text_fields_must_be_strings(self, field, value):
        doc = case_to_dict(minimal_chain())
        (node_doc,) = [n for n in doc["nodes"] if n["id"] == "G2"]
        node_doc[field] = value
        with pytest.raises(ParseError, match=f"{field} must be a string"):
            case_from_dict(doc)

    @pytest.mark.parametrize("field", ["id", "kind", "statement"])
    def test_null_node_text_field_rejected(self, field):
        # "id": null once became a node named "None"
        doc = case_to_dict(minimal_chain())
        (node_doc,) = [n for n in doc["nodes"] if n["id"] == "G2"]
        node_doc[field] = None
        with pytest.raises(ParseError, match=f"{field} must be a string"):
            case_from_dict(doc)

    def test_null_edge_end_cannot_name_a_null_node(self):
        doc = case_to_dict(minimal_chain())
        doc["nodes"].append({"id": None, "kind": "context", "statement": "c"})
        doc["in_context_of"] = [["G1", None]]
        with pytest.raises(ParseError, match="must be a string"):
            case_from_dict(doc)

    @pytest.mark.parametrize("edges", ["supported_by", "in_context_of"])
    def test_edge_ends_must_be_strings(self, edges):
        doc = case_to_dict(top_level_shape())
        doc[edges] = doc[edges] + [["G1", 3]]
        with pytest.raises(ParseError, match=f"{edges} must be a string"):
            case_from_dict(doc)

    @pytest.mark.parametrize("root", [None, 1])
    def test_root_must_be_a_string(self, root):
        doc = case_to_dict(minimal_chain())
        doc["root"] = root
        with pytest.raises(ParseError, match="root must be a string"):
            case_from_dict(doc)

    def test_absent_statement_and_null_module_ref_accepted(self):
        doc = case_to_dict(minimal_chain())
        for node_doc in doc["nodes"]:
            node_doc.pop("statement")
            node_doc["module_ref"] = None
        case = case_from_dict(doc)
        assert all(n.statement == "" and n.module_ref is None for n in case.nodes)

    def test_document_shape(self):
        doc = case_to_dict(minimal_chain())
        assert doc["root"] == "G1"
        assert ["G1", "S1"] in doc["supported_by"]
        kinds = {n["id"]: n["kind"] for n in doc["nodes"]}
        assert kinds == {"G1": "goal", "S1": "strategy", "G2": "goal", "Sn1": "solution"}
