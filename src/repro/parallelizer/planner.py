"""The parallelization pass.

For each loop (outermost first — an already-parallel outer loop is the
paper's goal, inner parallelism is not pursued further), combine

* the array verdict of the chosen dependence test, and
* the scalar verdict of privatization/reduction analysis,

into a :class:`LoopPlan`.  Plans that succeed carry an ``omp parallel
for`` pragma with the private/reduction clauses; the annotated C prints
them as an overlay (:attr:`ParallelizationPlan.pragmas`) — the IR
itself is immutable and never written.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis import AnalysisResult, PropertyEnv, analyze_function
from repro.dependence import LoopDependenceResult, test_loop
from repro.ir.nodes import IRFunction, SLoop, Stmt
from repro.parallelizer.privatization import PrivatizationResult, analyze_scalars


@dataclass
class LoopPlan:
    label: str
    parallel: bool
    reason: str
    dependence: LoopDependenceResult | None = None
    scalars: PrivatizationResult | None = None
    pragma: str | None = None
    # the chain of evidence behind the verdict: the dependence-test
    # decision first, then the provenance of every fact it consumed
    provenance: list[str] = field(default_factory=list)

    def describe(self) -> str:
        head = f"{self.label}: {'PARALLEL' if self.parallel else 'serial'} — {self.reason}"
        if self.pragma:
            head += f"\n  #pragma {self.pragma}"
        return head


@dataclass
class ParallelizationPlan:
    function: str
    method: str
    loops: dict[str, LoopPlan] = field(default_factory=dict)

    @property
    def pragmas(self) -> dict[str, str]:
        """Loop label -> pragma of every parallel loop, for
        ``function_to_c(func, pragmas=...)``."""
        return {l: p.pragma for l, p in self.loops.items() if p.parallel}

    @property
    def parallel_loops(self) -> list[str]:
        return [l for l, p in self.loops.items() if p.parallel]

    def describe(self) -> str:
        lines = [f"parallelization plan for {self.function} ({self.method}):"]
        lines += ["  " + p.describe().replace("\n", "\n  ") for p in self.loops.values()]
        return "\n".join(lines)


def covered_by_parallel_ancestor(label: str, verdicts: "dict[str, bool]") -> bool:
    """Is ``label`` nested inside a loop ``verdicts`` marks parallel?

    :func:`plan_function` stops descending into parallel loops, so inner
    labels legitimately drop out of a plan; the equivalence gates use
    this predicate to tell such subsumed labels from real verdict
    differences."""
    parts = label.split(".")
    return any(verdicts.get(".".join(parts[:k])) for k in range(1, len(parts)))


def plan_function(
    func: IRFunction,
    analysis: AnalysisResult | None = None,
    method: str = "extended",
    initial_env: PropertyEnv | None = None,
    nested: bool = False,
) -> ParallelizationPlan:
    """Plan parallelization of every loop nest.

    ``nested=False`` (default) stops descending once a loop is parallel.
    """
    result = analysis if analysis is not None else analyze_function(func, initial_env)
    plan = ParallelizationPlan(function=func.name, method=method)

    def visit_loops(stmts: list[Stmt]) -> None:
        for s in stmts:
            if isinstance(s, SLoop):
                loop_plan = plan_loop(func, s, result, method)
                plan.loops[s.label] = loop_plan
                if not loop_plan.parallel or nested:
                    visit_loops(s.body)
            else:
                for b in s.blocks():
                    visit_loops(b)

    visit_loops(func.body)
    return plan


def plan_loop(
    func: IRFunction,
    loop: SLoop,
    analysis: AnalysisResult,
    method: str = "extended",
) -> LoopPlan:
    """Decide parallelizability of a single loop."""
    env = analysis.env_before.get(loop.label, analysis.final_env)
    scalars = analyze_scalars(loop.body, loop.var, func.symtab)
    if not scalars.ok:
        return LoopPlan(
            label=loop.label,
            parallel=False,
            reason=f"loop-carried scalar(s): {', '.join(scalars.carried)}",
            scalars=scalars,
            provenance=[f"verdict[{method}]: loop-carried scalar(s): "
                        f"{', '.join(scalars.carried)}"],
        )
    dep = test_loop(func, loop, env, method)
    if not dep.parallel:
        failing = dep.failed_pairs()
        why = failing[0].reason if failing else "dependence not refuted"
        arrays = sorted({p.a.array for p in failing})
        reason = f"array dependence on {', '.join(arrays)}: {why}"
        return LoopPlan(
            label=loop.label,
            parallel=False,
            reason=reason,
            dependence=dep,
            scalars=scalars,
            provenance=_loop_provenance(analysis, dep, method, reason),
        )
    pragma = _pragma_text(scalars)
    reason = _success_reason(dep)
    return LoopPlan(
        label=loop.label,
        parallel=True,
        reason=reason,
        dependence=dep,
        scalars=scalars,
        pragma=pragma,
        provenance=_loop_provenance(analysis, dep, method, reason),
    )


def _loop_provenance(
    analysis: AnalysisResult,
    dep: LoopDependenceResult,
    method: str,
    reason: str,
) -> list[str]:
    """The verdict's chain of evidence: the dependence decision followed
    by the provenance of every array fact the test could have consumed."""
    chain = [f"verdict[{method}]: {reason}"]
    arrays: set[str] = set()
    if dep.accesses is not None:
        for a in dep.accesses.accesses:
            arrays.add(a.array)
            if a.index is not None:
                for d in a.index.dims:
                    if d.indirect is not None:
                        arrays.add(d.indirect.via)
    chain += [s.describe() for s in analysis.provenance.for_arrays(arrays)]
    return chain


def _success_reason(dep: LoopDependenceResult) -> str:
    reasons = {p.reason for p in dep.pairs}
    if not reasons:
        return "no conflicting array accesses"
    return "; ".join(sorted(reasons))


def _pragma_text(scalars: PrivatizationResult) -> str:
    parts = ["omp parallel for"]
    if scalars.private:
        parts.append(f"private({','.join(scalars.private)})")
    for name, op in scalars.reductions:
        parts.append(f"reduction({op}:{name})")
    return " ".join(parts)
