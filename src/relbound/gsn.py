"""GSN safety cases: data model, validation, claim evaluation, DOT export.

Seven element kinds cover the argument structures this package works
with: goals, strategies, solutions, contexts, assumptions,
justifications, and away goals (claims argued in another module). Goals
may carry a quantitative claim binding that the conservative solver
evaluates against operational data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ParseError, ZeroEvidenceError
from .inference import Observation, ObjectiveSpec, objective_from_dict, objective_to_dict
from .priors import (
    DEFAULT_RESOLUTION,
    PartialPriorConstraint,
    build_grid,
    constraint_to_dict,
    constraints_from_list,
)
from .solver import STATUS_INFEASIBLE, solve

KINDS = frozenset(
    {"goal", "strategy", "solution", "context", "assumption", "justification", "away-goal"}
)
_ANNOTATION_KINDS = frozenset({"context", "assumption", "justification"})
#: node kinds that count as developed support under a goal
_SUPPORTING_KINDS = frozenset({"strategy", "solution", "away-goal"})

SATISFIED = "satisfied"
UNSATISFIED = "unsatisfied"
UNDEVELOPED = "undeveloped"


@dataclass(frozen=True)
class QuantClaim:
    """A quantitative claim on a goal: a solver query plus a pass threshold."""

    constraints: tuple[PartialPriorConstraint, ...]
    objective: ObjectiveSpec
    threshold: float
    comparison: str  # ">=" | "<="

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {self.threshold!r}")
        if self.comparison not in (">=", "<="):
            raise ValueError(f"comparison must be '>=' or '<=', got {self.comparison!r}")

    def holds(self, bound: float) -> bool:
        return bound >= self.threshold if self.comparison == ">=" else bound <= self.threshold

    def to_dict(self) -> dict:
        return {
            "constraints": [constraint_to_dict(c) for c in self.constraints],
            "objective": objective_to_dict(self.objective),
            "threshold": self.threshold,
            "comparison": self.comparison,
        }


@dataclass(frozen=True)
class GsnNode:
    id: str
    kind: str
    statement: str
    undeveloped: bool = False
    module_ref: str | None = None
    claim_binding: QuantClaim | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}")
        if self.undeveloped and self.kind != "goal":
            raise ValueError(f"{self.id}: only goals can be marked undeveloped")
        if self.kind == "away-goal" and not self.module_ref:
            raise ValueError(f"{self.id}: away goals must carry a module_ref")
        if self.claim_binding is not None and self.kind != "goal":
            raise ValueError(f"{self.id}: claim bindings are only allowed on goals")


@dataclass(frozen=True)
class SafetyCase:
    nodes: tuple[GsnNode, ...]
    supported_by: tuple[tuple[str, str], ...]
    in_context_of: tuple[tuple[str, str], ...]
    root: str

    def __post_init__(self) -> None:
        ids = [node.id for node in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")

    def node_map(self) -> dict[str, GsnNode]:
        return {node.id: node for node in self.nodes}

    def children(self, node_id: str) -> list[str]:
        return [dst for src, dst in self.supported_by if src == node_id]


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.subject}: {self.message}"


def _find_cycle(case: SafetyCase) -> list[str] | None:
    graph: dict[str, list[str]] = {node.id: [] for node in case.nodes}
    for src, dst in case.supported_by:
        if src in graph and dst in graph:
            graph[src].append(dst)
    state: dict[str, int] = {}  # 0 visiting, 1 done
    stack: list[str] = []

    def visit(node_id: str) -> list[str] | None:
        state[node_id] = 0
        stack.append(node_id)
        for nxt in graph[node_id]:
            if state.get(nxt) == 0:
                return stack[stack.index(nxt) :] + [nxt]
            if nxt not in state:
                found = visit(nxt)
                if found:
                    return found
        state[node_id] = 1
        stack.pop()
        return None

    for node_id in sorted(graph):
        if node_id not in state:
            found = visit(node_id)
            if found:
                return found
    return None


def validate(case: SafetyCase, module_registry: Iterable[str] = ()) -> list[Violation]:
    """Structural well-formedness; an empty list means the case is well formed."""
    registry = set(module_registry)
    nodes = case.node_map()
    violations: list[Violation] = []

    for src, dst in list(case.supported_by) + list(case.in_context_of):
        for endpoint in (src, dst):
            if endpoint not in nodes:
                violations.append(
                    Violation("unknown-node", endpoint, "edge endpoint is not a declared node")
                )
    if violations:
        return violations

    root = nodes.get(case.root)
    if root is None:
        violations.append(Violation("root-missing", case.root, "root id is not a declared node"))
    elif root.kind != "goal":
        violations.append(Violation("root-not-goal", case.root, f"root is a {root.kind}"))

    cycle = _find_cycle(case)
    if cycle is not None:
        violations.append(
            Violation("cycle", cycle[0], "supported_by cycle: " + " -> ".join(cycle))
        )

    supported = {}
    for src, dst in case.supported_by:
        supported.setdefault(src, []).append(dst)

    for node in sorted(case.nodes, key=lambda n: n.id):
        children = [nodes[c] for c in supported.get(node.id, [])]
        if node.kind == "goal":
            bad = [c for c in children if c.kind in _ANNOTATION_KINDS]
            for child in bad:
                violations.append(
                    Violation(
                        "context-on-support-edge",
                        f"{node.id}->{child.id}",
                        f"{child.kind} nodes attach via in_context_of, not supported_by",
                    )
                )
            if not node.undeveloped and not any(
                c.kind in _SUPPORTING_KINDS for c in children
            ):
                violations.append(
                    Violation(
                        "unsupported-goal",
                        node.id,
                        "goal is neither undeveloped nor supported by a strategy or solution",
                    )
                )
        elif node.kind == "strategy":
            if not children:
                violations.append(
                    Violation("childless-strategy", node.id, "strategy supports no goals")
                )
            for child in children:
                if child.kind not in ("goal", "away-goal"):
                    violations.append(
                        Violation(
                            "strategy-bad-child",
                            f"{node.id}->{child.id}",
                            f"strategies are supported only by goals, found {child.kind}",
                        )
                    )
        elif node.kind == "solution":
            if children:
                violations.append(
                    Violation("solution-not-leaf", node.id, "solutions must be leaves")
                )
        elif node.kind == "away-goal":
            if children:
                violations.append(
                    Violation("away-goal-not-leaf", node.id, "away goals are developed elsewhere")
                )
            if node.module_ref not in registry:
                violations.append(
                    Violation(
                        "unresolved-away-goal",
                        node.id,
                        f"module_ref {node.module_ref!r} not in the module registry",
                    )
                )
        elif node.kind in _ANNOTATION_KINDS:
            if node.id in supported:
                violations.append(
                    Violation(
                        "context-on-support-edge",
                        node.id,
                        f"{node.kind} nodes cannot support anything",
                    )
                )

    for src, dst in case.in_context_of:
        src_node, dst_node = nodes[src], nodes[dst]
        if src_node.kind not in ("goal", "strategy", "away-goal"):
            violations.append(
                Violation(
                    "bad-context-edge",
                    f"{src}->{dst}",
                    f"in_context_of source must be a goal or strategy, found {src_node.kind}",
                )
            )
        if dst_node.kind not in _ANNOTATION_KINDS:
            violations.append(
                Violation(
                    "bad-context-edge",
                    f"{src}->{dst}",
                    f"in_context_of target must be a context-like node, found {dst_node.kind}",
                )
            )
    return violations


def evaluate_case(
    case: SafetyCase,
    obs: Observation,
    module_registry: Iterable[str] = (),
    resolution: int = DEFAULT_RESOLUTION,
) -> dict[str, str]:
    """Per-goal status under the observation.

    Goals with a claim binding are judged by the conservative bound
    against their threshold; goals without one are satisfied only when
    every supporting child is (conjunctive propagation, the conservative
    reading). Undeveloped goals report their own status and do not count
    as satisfied for their parents.
    """
    violations = validate(case, module_registry)
    if violations:
        raise ValueError("case is not well formed: " + "; ".join(str(v) for v in violations))
    nodes = case.node_map()
    memo: dict[str, str] = {}

    def status_of(node_id: str) -> str:
        if node_id in memo:
            return memo[node_id]
        node = nodes[node_id]
        if node.kind not in ("goal", "strategy"):
            # annotations never gate satisfaction, and away-goals were
            # resolved against the registry during validation
            result = SATISFIED
        elif node.kind == "goal" and node.claim_binding is not None:
            result = _evaluate_binding(node.claim_binding, obs, resolution)
        elif node.kind == "goal" and node.undeveloped:
            result = UNDEVELOPED
        else:  # a strategy, or a goal argued through its children
            children_hold = all(status_of(c) == SATISFIED for c in case.children(node_id))
            result = SATISFIED if children_hold else UNSATISFIED
        memo[node_id] = result
        return result

    statuses: dict[str, str] = {}
    for node in case.nodes:
        if node.kind == "goal":
            statuses[node.id] = status_of(node.id)
    return statuses


def _evaluate_binding(claim: QuantClaim, obs: Observation, resolution: int) -> str:
    grid = build_grid(claim.constraints, claim.objective, resolution)
    try:
        result = solve(claim.constraints, obs, claim.objective, grid)
    except ZeroEvidenceError:
        return "unevaluable: zero-evidence"
    if result.solver_status == STATUS_INFEASIBLE:
        return "unevaluable: infeasible"
    return SATISFIED if claim.holds(result.bound) else UNSATISFIED


_DOT_SHAPES = {
    "goal": "[shape=box]",
    "strategy": "[shape=parallelogram]",
    "solution": "[shape=circle]",
    "context": "[shape=box, style=rounded]",
    "assumption": "[shape=ellipse]",
    "justification": "[shape=ellipse]",
    "away-goal": "[shape=box, peripheries=2]",
}


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def export_dot(case: SafetyCase) -> str:
    """Deterministic DOT text: nodes sorted by id, then sorted edges."""
    lines = ["digraph safety_case {", "  rankdir=TB;"]
    for node in sorted(case.nodes, key=lambda n: n.id):
        attrs = _DOT_SHAPES[node.kind]
        marker = " (undeveloped)" if node.undeveloped else ""
        label = _dot_escape(f"{node.id}\n{node.statement}{marker}")
        lines.append(f'  "{node.id}" {attrs[:-1]}, label="{label}"];')
    for src, dst in sorted(case.supported_by):
        lines.append(f'  "{src}" -> "{dst}";')
    for src, dst in sorted(case.in_context_of):
        lines.append(f'  "{src}" -> "{dst}" [style=dashed, arrowhead=empty];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def claim_from_dict(doc: Mapping) -> QuantClaim:
    try:
        return QuantClaim(
            constraints=constraints_from_list(doc["constraints"]),
            objective=objective_from_dict(doc["objective"]),
            threshold=float(doc["threshold"]),
            comparison=str(doc["comparison"]),
        )
    except KeyError as exc:
        raise ParseError(f"claim binding missing field {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ParseError(f"bad claim binding: {exc}") from None


def case_from_dict(doc: Mapping) -> SafetyCase:
    try:
        nodes = []
        for node_doc in doc["nodes"]:
            binding = node_doc.get("claim_binding")
            nodes.append(
                GsnNode(
                    id=str(node_doc["id"]),
                    kind=str(node_doc["kind"]),
                    statement=str(node_doc.get("statement", "")),
                    undeveloped=bool(node_doc.get("undeveloped", False)),
                    module_ref=node_doc.get("module_ref"),
                    claim_binding=None if binding is None else claim_from_dict(binding),
                )
            )
        return SafetyCase(
            nodes=tuple(nodes),
            supported_by=tuple((str(a), str(b)) for a, b in doc.get("supported_by", [])),
            in_context_of=tuple((str(a), str(b)) for a, b in doc.get("in_context_of", [])),
            root=str(doc["root"]),
        )
    except KeyError as exc:
        raise ParseError(f"safety case document missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad safety case document: {exc}") from None


def case_to_dict(case: SafetyCase) -> dict:
    nodes = []
    for node in case.nodes:
        node_doc: dict = {"id": node.id, "kind": node.kind, "statement": node.statement}
        if node.undeveloped:
            node_doc["undeveloped"] = True
        if node.module_ref is not None:
            node_doc["module_ref"] = node.module_ref
        if node.claim_binding is not None:
            node_doc["claim_binding"] = node.claim_binding.to_dict()
        nodes.append(node_doc)
    return {
        "root": case.root,
        "nodes": nodes,
        "supported_by": [list(edge) for edge in case.supported_by],
        "in_context_of": [list(edge) for edge in case.in_context_of],
    }
