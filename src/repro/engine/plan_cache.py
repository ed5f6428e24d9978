"""A bounded, versioned cache for compiled query-lifecycle artifacts.

Mediation and planning are compile-once work: for an unchanged catalog and
unchanged context knowledge, the same receiver statement always mediates to
the same branches and plans to the same :class:`~repro.engine.plan.QueryPlan`.
Under the heavy-traffic serving pattern — the same receiver queries arriving
over and over — re-paying conflict detection, abduction and planning per call
is pure overhead, so the query pipeline (:mod:`repro.pipeline`) memoizes both
stages here.

:class:`PlanCacheKey` is the canonical identity of one cached pipeline
product: the statement's AST fingerprint (:mod:`repro.sql.normalize`), the
receiver context it was mediated for, whether mediation ran at all, and the
**generation counters** of the two knowledge stores a cached artifact could
otherwise read stale:

* ``catalog_generation`` — bumped by the catalog on wrapper/relation
  (re)registration and by the engine on source invalidation;
* ``knowledge_generation`` — the :class:`~repro.coin.system.CoinSystem`
  roll-up of domain model, contexts, elevations and conversions.

Because the generations are part of the *key*, invalidation needs no
callbacks: any dictionary or knowledge change makes every previously cached
entry unreachable, and the LRU bound retires it.  :meth:`PlanCache.prune`
exists for housekeeping (dropping unreachable generations eagerly).

:class:`PlanCache` itself is value-agnostic — the pipeline stores
``MediatedPlan`` objects in one instance and ``MediationResult`` objects in
another — and thread-safe, matching the server's concurrent sessions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.engine.lru import LRUCache


@dataclass(frozen=True)
class PlanCacheKey:
    """The canonical identity of one cached mediation/planning product."""

    fingerprint: str
    receiver_context: str
    mediate: bool
    catalog_generation: int
    knowledge_generation: int
    #: Cardinality-feedback epoch the artifact was priced under.  Advances
    #: only on *material* estimation errors (see
    #: :mod:`repro.engine.feedback`), so refined estimates reach cached and
    #: prepared statements without churning warm plans for small workloads.
    #: Mediation products don't price anything and keep the default.
    feedback_epoch: int = 0


class PlanCache(LRUCache):
    """Bounded LRU of pipeline artifacts keyed by :class:`PlanCacheKey`.

    Generic over values on purpose: the pipeline keeps one instance for
    fully-planned ``MediatedPlan`` objects and one for bare mediation
    results.  All operations are O(1) except :meth:`prune`/:meth:`clear`,
    which walk the (bounded) key set.
    """

    def __init__(self, capacity: int = 128):
        super().__init__(capacity)

    def prune(self, catalog_generation: Optional[int] = None,
              knowledge_generation: Optional[int] = None,
              feedback_epoch: Optional[int] = None) -> int:
        """Drop entries whose generations no longer match the live counters.

        Stale entries are already unreachable (the generations are part of
        the key); pruning just frees their slots eagerly.  Returns the number
        of dropped entries.
        """
        return self.drop_where(
            lambda key: isinstance(key, PlanCacheKey) and (
                (catalog_generation is not None
                 and key.catalog_generation != catalog_generation)
                or (knowledge_generation is not None
                    and key.knowledge_generation != knowledge_generation)
                or (feedback_epoch is not None
                    and key.feedback_epoch != feedback_epoch)
            )
        )
