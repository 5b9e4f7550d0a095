"""Purity contracts: PURE001 (declared pure ⇒ effect-free) and PURE002
(the functions correctness depends on must *be* declared pure).

The work-queue executor recomputes tasks on arbitrary workers, the
content-addressed cache deduplicates them across processes, and paired
replication reuses the NONE baseline across schemes — all sound only
because ``run_single`` is a pure function of ``(config, replication)``.
PURE001 checks the contract: a function decorated with
:func:`repro.contracts.declared_pure` must have a transitively empty
*banned* effect set (unkeyed RNG, wall clock, I/O, module-global
writes, blocking calls).  Host *timing* reads are tolerated — they feed
only the ``wall_time_s``/``phase_timings`` diagnostics the canonical
payloads strip.

PURE002 closes the other hole: deleting the decorator would silently
disable PURE001, so the registry below pins the functions that must
carry it whenever they exist in the analyzed tree.

Waiving: a ``disable=PURE001`` pragma on the ``def`` line excuses one
contract; a pragma on the *effect origin* line excuses that effect for
every chain that reaches it (both count as used for the LNT002 audit).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..effects.analysis import effect_chains
from ..effects.model import PURE_BANNED_KINDS, EffectRecord, FunctionFacts
from ..findings import Finding, Severity
from .base import ProjectRule, register

if TYPE_CHECKING:
    from ..effects.project import ProjectContext

#: qualified ids that must carry @declared_pure when present in the
#: analyzed tree (checked by PURE002; enforced effect-free by PURE001)
REQUIRED_PURE = (
    "repro.core.cache.config_fingerprint",
    "repro.core.experiment.run_single",
    "repro.obs.manifest._dumps",
    "repro.service.jobs.canonical_grid_json",
    "repro.service.jobs.canonical_grid_payload",
)

KIND_LABEL = {
    "rng": "unkeyed randomness",
    "wall_clock": "a wall-clock read",
    "io": "filesystem I/O",
    "global_write": "a module-global write",
    "blocking": "a blocking call",
}


@register
class Pure001DeclaredPureEffects(ProjectRule):
    """A ``@declared_pure`` function transitively performs an effect."""

    id = "PURE001"
    severity = Severity.ERROR
    summary = (
        "@declared_pure function with a transitively non-empty effect "
        "set (RNG, wall clock, I/O, global write, blocking call)"
    )

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        graph = project.graph

        def suppress(
            owner: FunctionFacts, path: str, effect: EffectRecord
        ) -> bool:
            return project.try_waive(self.id, path, effect.line)

        for qualid in sorted(graph.functions):
            fn = graph.functions[qualid]
            if not fn.declared_pure:
                continue
            chains = effect_chains(
                graph, qualid, PURE_BANNED_KINDS, suppress
            )
            path = graph.function_path[qualid]
            for kind in PURE_BANNED_KINDS:
                chain = chains.get(kind)
                if chain is None:
                    continue
                yield project.finding(
                    self.id, self.severity, path, fn.line, 0,
                    f"{fn.name}() is @declared_pure but transitively "
                    f"performs {KIND_LABEL[kind]}: "
                    f"{chain.describe(fn.name + '()')}; make the callee "
                    f"pure, key the stream, or waive at the origin line",
                )


@register
class Pure002MissingPurityContract(ProjectRule):
    """A correctness-critical function lost its ``@declared_pure``."""

    id = "PURE002"
    severity = Severity.ERROR
    summary = (
        "cache/replay-critical function (run_single, fingerprinting, "
        "canonicalisation) missing its @declared_pure contract"
    )

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        for qualid in REQUIRED_PURE:
            fn = project.graph.functions.get(qualid)
            if fn is None or fn.declared_pure:
                continue
            path = project.graph.function_path[qualid]
            yield project.finding(
                self.id, self.severity, path, fn.line, 0,
                f"{fn.name}() underpins result caching and work-queue "
                f"replay; decorate it with @declared_pure "
                f"(repro.contracts) so PURE001 keeps enforcing its "
                f"effect-freedom",
            )
