"""GSN safety cases: data model, validation, claim evaluation, DOT export.

Seven element kinds cover the argument structures this package works
with: goals, strategies, solutions, contexts, assumptions,
justifications, and away goals (claims argued in another module). Goals
may carry a quantitative claim binding that the conservative solver
evaluates against operational data.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ParseError, ZeroEvidenceError, parsing
from .inference import (
    CONSERVATIVE_MAX,
    Observation,
    ObjectiveSpec,
    objective_from_dict,
    objective_to_dict,
)
from .priors import (
    DEFAULT_RESOLUTION,
    PartialPriorConstraint,
    build_grid,
    constraint_to_dict,
    constraints_from_list,
    number_field,
)
from .solver import (
    _running_best,
    solve,  # noqa: F401  importable from here, though goals read _running_best
)

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
    """A quantitative claim on a goal: a solver query plus a pass threshold.

    The comparison must point the objective's conservative way: ``"<="``
    for a maximised objective (E[pfd]) and ``">="`` for a minimised one
    (posterior confidence, future reliability). Judged against the worst
    case, a claim that points the other way would hold whenever some
    admissible prior meets it.
    """

    constraints: tuple[PartialPriorConstraint, ...]
    objective: ObjectiveSpec
    threshold: float
    comparison: str  # ">=" | "<="

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {self.threshold!r}")
        if self.comparison not in (">=", "<="):
            raise ValueError(f"comparison must be '>=' or '<=', got {self.comparison!r}")
        conservative = "<=" if self.objective.direction == CONSERVATIVE_MAX else ">="
        if self.comparison != conservative:
            raise ValueError(
                f"a {type(self.objective).__name__} claim must use {conservative!r}, "
                f"got {self.comparison!r}"
            )

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

    def children(self) -> dict[str, list[str]]:
        """Each supporting node's ``supported_by`` children, in edge order."""
        out: dict[str, list[str]] = {}
        for src, dst in self.supported_by:
            out.setdefault(src, []).append(dst)
        return out


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.subject}: {self.message}"


def _find_cycle(case: SafetyCase, children: Mapping[str, list[str]]) -> list[str] | None:
    """The first ``supported_by`` cycle a depth-first search meets, starting
    from the node ids in sorted order; the search keeps its path on an
    explicit stack, so no depth reaches the recursion limit."""
    state: dict[str, int] = {}  # 0 on the path, 1 done
    for start in sorted(node.id for node in case.nodes):
        if start in state:
            continue
        state[start] = 0
        path = [start]
        pending = [iter(children.get(start, ()))]
        while pending:
            for nxt in pending[-1]:
                if state.get(nxt) == 0:
                    return path[path.index(nxt) :] + [nxt]
                if nxt not in state:
                    state[nxt] = 0
                    path.append(nxt)
                    pending.append(iter(children.get(nxt, ())))
                    break
            else:
                state[path.pop()] = 1
                pending.pop()
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

    supported = case.children()
    cycle = _find_cycle(case, supported)
    if cycle is not None:
        violations.append(
            Violation("cycle", cycle[0], "supported_by cycle: " + " -> ".join(cycle))
        )

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
    against their threshold, and a refuted claim stops its solve early
    (see ``_evaluate_binding``); goals without one are satisfied only when
    every supporting child is (conjunctive propagation, the conservative
    reading). Undeveloped goals report their own status and do not count
    as satisfied for their parents.
    """
    violations = validate(case, module_registry)
    if violations:
        raise ValueError("case is not well formed: " + "; ".join(str(v) for v in violations))
    nodes = case.node_map()
    children = case.children()
    status: dict[str, str] = {}
    # children first; ``validate`` has refused cycles
    for node_id in graphlib.TopologicalSorter(
        {node_id: children.get(node_id, []) for node_id in nodes}
    ).static_order():
        node = nodes[node_id]
        if node.kind not in ("goal", "strategy"):
            # annotations never gate satisfaction, and away-goals were
            # resolved against the registry during validation
            status[node_id] = SATISFIED
        elif node.kind == "goal" and node.claim_binding is not None:
            status[node_id] = _evaluate_binding(node.claim_binding, obs, resolution)
        elif node.kind == "goal" and node.undeveloped:
            status[node_id] = UNDEVELOPED
        else:  # a strategy, or a goal argued through its children
            supported = all(status[kid] == SATISFIED for kid in children.get(node_id, []))
            status[node_id] = SATISFIED if supported else UNSATISFIED
    return {node.id: status[node.id] for node in case.nodes if node.kind == "goal"}


def _evaluate_binding(claim: QuantClaim, obs: Observation, resolution: int) -> str:
    """The goal's status from ``solve``'s running best.

    The claim points the objective's conservative way, and the running
    best never moves back from it, so the first value that refutes the
    claim (above a ``"<="`` threshold, below a ``">="`` one) refutes the
    bound too, and no further window runs. The windows run deepest
    anchor first, and the deepest window's value refutes most refuted
    claims. A claim that holds runs every window: its last value is the
    bound ``solve`` reports, which re-values the same row on the same
    points with the same scorer.
    """
    grid = build_grid(claim.constraints, claim.objective, resolution)
    feasible = False
    try:
        for value, _, _ in _running_best(claim.constraints, obs, claim.objective, grid):
            if not claim.holds(value):
                return UNSATISFIED
            feasible = True
    except ZeroEvidenceError:
        return "unevaluable: zero-evidence"
    return SATISFIED if feasible else "unevaluable: infeasible"


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
        lines.append(f'  "{_dot_escape(node.id)}" {attrs[:-1]}, label="{label}"];')
    for src, dst in sorted(case.supported_by):
        lines.append(f'  "{_dot_escape(src)}" -> "{_dot_escape(dst)}";')
    for src, dst in sorted(case.in_context_of):
        lines.append(
            f'  "{_dot_escape(src)}" -> "{_dot_escape(dst)}" [style=dashed, arrowhead=empty];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def claim_from_dict(doc: Mapping) -> QuantClaim:
    with parsing("claim binding"):
        return QuantClaim(
            constraints=constraints_from_list(doc["constraints"]),
            objective=objective_from_dict(doc["objective"]),
            threshold=number_field(doc, "threshold"),
            comparison=str(doc["comparison"]),
        )


def _text(value, field: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{field} must be a string, got {value!r}")
    return value


def _edges(doc: Mapping, field: str) -> tuple[tuple[str, str], ...]:
    return tuple((_text(a, field), _text(b, field)) for a, b in doc.get(field, []))


def case_from_dict(doc: Mapping) -> SafetyCase:
    with parsing("safety case document"):
        nodes = []
        for node_doc in doc["nodes"]:
            binding = node_doc.get("claim_binding")
            undeveloped = node_doc.get("undeveloped", False)
            if not isinstance(undeveloped, bool):
                raise ParseError(f"undeveloped must be true or false, got {undeveloped!r}")
            module_ref = node_doc.get("module_ref")
            nodes.append(
                GsnNode(
                    id=_text(node_doc["id"], "id"),
                    kind=_text(node_doc["kind"], "kind"),
                    statement=_text(node_doc.get("statement", ""), "statement"),
                    undeveloped=undeveloped,
                    module_ref=None if module_ref is None else _text(module_ref, "module_ref"),
                    claim_binding=None if binding is None else claim_from_dict(binding),
                )
            )
        return SafetyCase(
            nodes=tuple(nodes),
            supported_by=_edges(doc, "supported_by"),
            in_context_of=_edges(doc, "in_context_of"),
            root=_text(doc["root"], "root"),
        )


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
