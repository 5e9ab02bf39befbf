"""SHA-256 digests of every benchmark op's full output.

Runs every input of the named workloads' pools once, in pool order, and
prints one line per op and one per pool::

    solve-mix 5 s17 <sha256 of that op's output>
    solve-mix 5 * <sha256 over the pool's op lines> 434

An op's output is its full result as canonical JSON (sorted keys, floats
written so that they read back bit for bit):

* solve-mix: the solve's ``to_dict()``;
* audit: the conservatism report's ``to_dict()``;
* gsn-case: the goal status map, plus each bound claim's own solve;
* extreme: the solve's ``to_dict()``;
* oracle: the sub-grid oracle's ``to_dict()``;
* audit-seeds: the conservatism report's ``to_dict()``;
* gsn-ties: the goal status maps of a case whose claims sit on ties.

An op that raises a relbound error records its type and message instead;
any other exception stops the run. Two
trees give equal digests exactly when every op's output is equal, so a
claim that a change keeps outputs bit for bit is checked by running this
on both and comparing the lines. ``--dump PATH`` also writes every op's
output as JSON, keyed by workload, seed and input id, to show what moved.
``--compare OLD NEW`` reads two such dumps and prints, for every op whose
output differs, its outcome before and after: the error type it raised,
or its solve status (any other document is an ``output``). Where a bound
moved within one status, the line says whether the move is conservative
(towards the objective's worse side, the direction its ``objective``
names) or optimistic. A gsn-case or gsn-ties op gets a line per changed
goal instead, ``G2: satisfied -> unsatisfied`` (in gsn-ties, prefixed by
the tie step), and a gsn-case op one per changed claim, its solve read
as above. The last lines count the changes per category.

The pools come from ``benchmark/workloads.py``, which is only imported.
``--extreme N`` adds a pool named ``extreme`` of N solves per seed at
the edges of every parameter's range (see ``extreme_cases``). ``--oracle``
adds a pool named ``oracle``: for each solve-mix input, ``oracle_solve``
on the sub-grid that ``benchmark/checks.py`` (also only imported) builds
around the solve's witness, as its ``check_solve`` runs it.
``--audit-seeds`` adds a pool named ``audit-seeds``: each audit input,
its audit seed replaced in turn by one of ``AUDIT_SEEDS``, so the trial
seed hash sees entropy of every length from 2 to 8 words.
``--gsn-ties`` adds a pool named ``gsn-ties``: each gsn-case input
evaluated three times, every bound goal's threshold set to its claim's
own bound and to that bound's two float neighbours, so a goal's status
is decided by ties and one-ulp margins. Given alone, each of these flags
runs only its own pool.

    python3 tools/output_digest.py --workload solve-mix --seed 5 --seed 7
    python3 tools/output_digest.py --limit 3 --dump outputs.json
    python3 tools/output_digest.py --extreme 4000
    python3 tools/output_digest.py --oracle --seed 312 --dump oracle.json
    python3 tools/output_digest.py --audit-seeds --seed 5 --seed 7
    python3 tools/output_digest.py --gsn-ties --seed 5 --seed 29
    python3 tools/output_digest.py --compare before.json after.json
"""

from __future__ import annotations

import os

# as in benchmark/run.py: fixed before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import collections
import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "benchmark"), str(ROOT / "src")]

import checks  # noqa: E402
import numpy as np  # noqa: E402
import workloads as wl  # noqa: E402
from relbound import gsn, priors, solver  # noqa: E402
from relbound.errors import RelboundError  # noqa: E402
from relbound.inference import (  # noqa: E402
    CONSERVATIVE_MAX,
    FutureReliability,
    Observation,
    PosteriorConfidence,
    PosteriorExpectedPfd,
    objective_from_dict,
)

WORKLOAD_NAMES = tuple(wl.WORKLOADS)

#: the extreme pool's values: every probability-like parameter (theta,
#: gamma, m, epsilon), prior-reliability n0, demand count n, p_req, t and
#: grid resolution
EXTREME_UNIT = (0.0, 1e-12, 1e-9, 0.5, 1.0 - 1e-12, 1.0)
EXTREME_N0 = (1, 10, 10**3, 10**6)
EXTREME_N = (1, 10, 100, 10**4, 10**6, 10**9)
EXTREME_P_REQ = (1e-9, 1e-4, 0.5)
EXTREME_T = (0, 10, 10**6)
EXTREME_RESOLUTIONS = (50, 200, 500)

#: the audit-seeds pool's audit seeds: 1, 1, 2, 3, 4, 5 and 7 words, so
#: ``[seed, trial index]`` runs from 2 words (inside SeedSequence's pool)
#: to 8 (four words mixed in past it)
AUDIT_SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 1, 2**96 + 1, 2**128 + 1, 2**200 + 1)


def _solve_doc(constraints, obs, objective, resolution) -> dict:
    grid = priors.build_grid(constraints, objective, resolution)
    try:
        return solver.solve(constraints, obs, objective, grid).to_dict()
    except RelboundError as exc:  # a raised error is part of the output
        return _raised(exc)


def _raised(exc: RelboundError) -> dict:
    return {"raised": type(exc).__name__, "message": str(exc)}


def op_output(workload: str, inst) -> dict:
    """The full output of one op, as a JSON-ready document."""
    try:
        output = wl.WORKLOADS[workload].op(inst)
    except RelboundError as exc:
        return _raised(exc)
    if workload != "gsn-case":
        return output.to_dict()
    case, obs = inst.args
    claims = {
        node.id: _solve_doc(
            node.claim_binding.constraints, obs, node.claim_binding.objective, wl.GSN_RESOLUTION
        )
        for node in case.nodes
        if node.claim_binding is not None
    }
    return {"statuses": output, "claims": claims}


def _extreme_constraint(rng: random.Random, kind: str):
    unit = EXTREME_UNIT
    if kind == "mean":
        return priors.MeanBound(rng.choice(unit))
    if kind == "confidence":
        return priors.ConfidenceBound(rng.choice(unit), rng.choice(unit))
    if kind == "perfection":
        return priors.PerfectionConfidence(rng.choice(unit))
    return priors.PriorReliability(rng.choice(EXTREME_N0), rng.choice(unit))


def extreme_cases(seed: int, count: int):
    """``count`` solve inputs ``(id, constraints, obs, objective, resolution)``
    drawn by ``random.Random(seed)``: 1 to 4 distinct constraint kinds, each
    parameter from its ``EXTREME_*`` values, k from {0, 1, n // 2, n} and
    each objective kind equally often in expectation."""
    rng = random.Random(seed)
    for index in range(count):
        kinds = rng.sample(wl.KINDS, rng.randint(1, len(wl.KINDS)))
        constraints = tuple(_extreme_constraint(rng, kind) for kind in kinds)
        n = rng.choice(EXTREME_N)
        obs = Observation(n=n, k=rng.choice((0, 1, n // 2, n)))
        objective = rng.choice(
            (
                PosteriorExpectedPfd(),
                PosteriorConfidence(rng.choice(EXTREME_P_REQ)),
                FutureReliability(rng.choice(EXTREME_T)),
            )
        )
        yield f"e{index}", constraints, obs, objective, rng.choice(EXTREME_RESOLUTIONS)


def extreme_outputs(seed: int, count: int):
    """Yield ``(input id, output document)`` for each extreme solve."""
    for inst_id, constraints, obs, objective, resolution in extreme_cases(seed, count):
        yield inst_id, _solve_doc(constraints, obs, objective, resolution)


def oracle_outputs(seed: int, limit: int | None = None):
    """Yield ``(input id, output document)`` for the sub-grid oracle on each
    solve-mix input: the grid is ``checks.subgrid`` of the input's grid,
    with the solve's witness when it has one. A relbound error raised by
    the solve or the oracle is the output."""
    for inst in wl.WORKLOADS["solve-mix"].make_pool(random.Random(seed))[:limit]:
        constraints, objective, obs, resolution = inst.args
        grid = priors.build_grid(constraints, objective, resolution)
        try:
            witness = wl.WORKLOADS["solve-mix"].op(inst).witness
            sub = checks.subgrid(grid, constraints, objective, witness)
            yield inst.id, solver.oracle_solve(constraints, obs, objective, sub).to_dict()
        except RelboundError as exc:
            yield inst.id, _raised(exc)


def audit_seed_outputs(seed: int, limit: int | None = None):
    """Yield ``(input id, output document)`` for each audit input, the
    ``i``-th run at audit seed ``AUDIT_SEEDS[i % len(AUDIT_SEEDS)]``."""
    for index, inst in enumerate(wl.WORKLOADS["audit"].make_pool(random.Random(seed))[:limit]):
        constraints, objective, obs, _ = inst.args
        audit_seed = AUDIT_SEEDS[index % len(AUDIT_SEEDS)]
        wide = wl.Instance(inst.id, (constraints, objective, obs, audit_seed), inst.structure)
        yield inst.id, op_output("audit", wide)


#: the gsn-ties pool's thresholds, as the direction to step from each
#: claim's bound: one ulp down, none, one ulp up
TIE_STEPS = {"below": -np.inf, "at": None, "above": np.inf}


def _tied_case(case, bounds: dict, step):
    """``case`` with each bound goal's threshold moved to its claim's bound
    stepped one ulp towards ``step`` (None: the bound itself), kept in
    [0, 1]; a goal whose claim has no bound keeps its threshold."""
    nodes = []
    for node in case.nodes:
        bound = bounds.get(node.id)
        if bound is not None:
            threshold = bound if step is None else float(np.clip(np.nextafter(bound, step), 0, 1))
            claim = dataclasses.replace(node.claim_binding, threshold=threshold)
            node = dataclasses.replace(node, claim_binding=claim)
        nodes.append(node)
    return dataclasses.replace(case, nodes=tuple(nodes))


def gsn_tie_outputs(seed: int, limit: int | None = None):
    """Yield ``(input id, output document)`` for each gsn-case input: the
    thresholds and the goal status map at each of ``TIE_STEPS``."""
    for inst in wl.WORKLOADS["gsn-case"].make_pool(random.Random(seed))[:limit]:
        case, obs = inst.args
        bounds = {
            node.id: _solve_doc(
                node.claim_binding.constraints, obs, node.claim_binding.objective, wl.GSN_RESOLUTION
            ).get("bound")
            for node in case.nodes
            if node.claim_binding is not None
        }
        doc = {}
        for name, step in TIE_STEPS.items():
            tied = _tied_case(case, bounds, step)
            thresholds = {
                node.id: node.claim_binding.threshold
                for node in tied.nodes
                if node.claim_binding is not None
            }
            try:
                statuses = gsn.evaluate_case(tied, obs, wl.GSN_MODULES, resolution=wl.GSN_RESOLUTION)
            except RelboundError as exc:
                statuses = _raised(exc)
            doc[name] = {"thresholds": thresholds, "statuses": statuses}
        yield inst.id, doc


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def pool_outputs(workload: str, seed: int, limit: int | None = None):
    """Yield ``(input id, output document)`` for each op of one pool."""
    for inst in wl.WORKLOADS[workload].make_pool(random.Random(seed))[:limit]:
        yield inst.id, op_output(workload, inst)


def outcome(doc) -> str:
    """An op's outcome: the error type it raised, its solve status, or
    ``output`` for a document with neither; ``absent`` for no document."""
    if doc is None:
        return "absent"
    if "raised" in doc:
        return doc["raised"]
    return doc.get("solver_status", "output")


def change_category(old, new) -> str:
    """How an op's output moved: ``"A -> B"`` for a change of outcome, and
    within one outcome, whether the bound moved conservatively or
    optimistically, or stayed while something else changed."""
    before, after = outcome(old), outcome(new)
    category = f"{before} -> {after}"
    if before != after or "bound" not in old:
        return category
    if old["bound"] == new["bound"]:
        return f"{category}, bound unchanged"
    maximize = objective_from_dict(new["objective"]).direction == CONSERVATIVE_MAX
    worse = (new["bound"] > old["bound"]) == maximize
    return f"{category}, {'conservative' if worse else 'optimistic'}"


def _bound_move(category: str, old, new) -> str:
    """The bound's move, for a category that names one."""
    if category.endswith(("conservative", "optimistic")):
        return f" ({old['bound']!r} -> {new['bound']!r})"
    return ""


def _status_maps(doc) -> dict | None:
    """A gsn-case or gsn-ties output's goal status maps, keyed by the label
    prefix of their goals: ``""`` for gsn-case, each tie step for gsn-ties;
    None for any other document."""
    if doc is None or "raised" in doc:
        return None
    if "statuses" in doc:
        return {"": doc["statuses"]}
    if all(step in doc for step in TIE_STEPS):
        return {f"{step} ": doc[step]["statuses"] for step in TIE_STEPS}
    return None


def _goal_status(statuses: dict, goal: str) -> str:
    """A goal's status in one status map, the error type if evaluating the
    case raised, or ``absent``."""
    return statuses["raised"] if "raised" in statuses else statuses.get(goal, "absent")


def goal_changes(old, new):
    """Yield ``(label, kind, category, bound move)`` for each part of a
    gsn-case or gsn-ties output that differs: a goal's status as
    ``"satisfied -> unsatisfied"``, labelled by the goal and, in gsn-ties,
    its tie step; and a gsn-case claim's solve through ``change_category``.
    Yields nothing unless both outputs hold status maps."""
    old_maps, new_maps = _status_maps(old), _status_maps(new)
    if old_maps is None or new_maps is None:
        return
    for prefix in old_maps:
        before, after = old_maps[prefix], new_maps[prefix]
        listed = [statuses for statuses in (before, after) if "raised" not in statuses]
        for goal in dict.fromkeys(goal for statuses in listed for goal in statuses):
            old_status, new_status = _goal_status(before, goal), _goal_status(after, goal)
            if old_status != new_status:
                yield f"{prefix}{goal}", "goal", f"{old_status} -> {new_status}", ""
    old_claims, new_claims = old.get("claims", {}), new.get("claims", {})
    for goal in {**old_claims, **new_claims}:
        before, after = old_claims.get(goal), new_claims.get(goal)
        if before != after:
            category = change_category(before, after)
            yield f"{goal} claim", "claim", category, _bound_move(category, before, after)


def compare(old_dump: dict, new_dump: dict):
    """Yield a line per op whose output differs between two ``--dump``
    documents, then one line per category with its count.

    A gsn-case or gsn-ties op gets a line per changed part instead, as
    ``goal_changes`` finds them; its categories are counted as ``goal``
    or ``claim`` ones. An op with no changed part found gets one line."""
    counts: collections.Counter = collections.Counter()
    ops = changed = 0
    for workload in {**old_dump, **new_dump}:
        old_seeds, new_seeds = old_dump.get(workload, {}), new_dump.get(workload, {})
        for seed in {**old_seeds, **new_seeds}:
            old_ops, new_ops = old_seeds.get(seed, {}), new_seeds.get(seed, {})
            for inst_id in {**old_ops, **new_ops}:
                ops += 1
                old, new = old_ops.get(inst_id), new_ops.get(inst_id)
                if old == new:
                    continue
                changed += 1
                op = f"{workload} {seed} {inst_id}"
                parts = list(goal_changes(old, new))
                for label, kind, category, move in parts:
                    counts[f"{kind}: {category}"] += 1
                    yield f"{op}: {label}: {category}{move}"
                if not parts:
                    category = change_category(old, new)
                    counts[category] += 1
                    yield f"{op}: {category}{_bound_move(category, old, new)}"
    yield f"changed: {changed} of {ops} ops"
    for category, count in counts.most_common():
        yield f"{count:8d}  {category}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="a workload to run (repeatable; default: all)")
    parser.add_argument("--seed", action="append", type=int,
                        help="a pool seed (repeatable; default: 5)")
    parser.add_argument("--limit", type=int, default=None,
                        help="run only the first N inputs of each pool")
    parser.add_argument("--dump", default=None,
                        help="also write every op's output to this JSON file")
    parser.add_argument("--extreme", type=int, default=None, metavar="N",
                        help="also run N extreme solves per seed (alone: only those)")
    parser.add_argument("--oracle", action="store_true",
                        help="also run the sub-grid oracle on each solve-mix input "
                        "(alone: only those)")
    parser.add_argument("--audit-seeds", action="store_true",
                        help="also run each audit input at a seed of 1 to 7 words "
                        "(alone: only those)")
    parser.add_argument("--gsn-ties", action="store_true",
                        help="also run each gsn-case input with its thresholds on its "
                        "claims' bounds (alone: only those)")
    parser.add_argument("--compare", nargs=2, default=None, metavar=("OLD", "NEW"),
                        help="compare two --dump files instead of running any pool")
    args = parser.parse_args(argv)
    if args.compare is not None:
        old_dump, new_dump = (json.loads(Path(path).read_text()) for path in args.compare)
        for line in compare(old_dump, new_dump):
            print(line)
        return 0
    alone = args.extreme or args.oracle or args.audit_seeds or args.gsn_ties
    pools = [
        (workload, lambda seed, w=workload: pool_outputs(w, seed, args.limit))
        for workload in args.workload or ([] if alone else WORKLOAD_NAMES)
    ]
    if args.extreme:
        pools.append(("extreme", lambda seed: extreme_outputs(seed, args.extreme)))
    if args.oracle:
        pools.append(("oracle", lambda seed: oracle_outputs(seed, args.limit)))
    if args.audit_seeds:
        pools.append(("audit-seeds", lambda seed: audit_seed_outputs(seed, args.limit)))
    if args.gsn_ties:
        pools.append(("gsn-ties", lambda seed: gsn_tie_outputs(seed, args.limit)))
    dump: dict = {}
    for workload, outputs_of in pools:
        for seed in args.seed or [5]:
            pool_hash = hashlib.sha256()
            outputs = dump.setdefault(workload, {}).setdefault(str(seed), {})
            for inst_id, doc in outputs_of(seed):
                sha = hashlib.sha256(canonical(doc).encode()).hexdigest()
                line = f"{workload} {seed} {inst_id} {sha}"
                print(line, flush=True)
                pool_hash.update((line + "\n").encode())
                outputs[inst_id] = doc
            print(f"{workload} {seed} * {pool_hash.hexdigest()} {len(outputs)}", flush=True)
    if args.dump is not None:
        Path(args.dump).write_text(canonical(dump) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
