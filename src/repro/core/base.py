"""Crawler interface shared by SB-CLASSIFIER and all baselines.

A crawler consumes a :class:`~repro.http.environment.CrawlEnvironment`
and a budget (in requests or bytes, Sec. 2.2) and produces a
:class:`CrawlResult` — the request trace plus the sets of visited pages
and retrieved targets.  All evaluation metrics are computed from the
trace, never from crawler internals.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.trace import CrawlTrace
from repro.core.kernel import FetchKernel, Outcome
from repro.http.environment import CrawlEnvironment
from repro.obs.observer import Observer


@dataclass
class CrawlResult:
    """Outcome of one crawler run on one website."""

    crawler: str
    site: str
    trace: CrawlTrace
    visited: set[str] = field(default_factory=set)
    targets: set[str] = field(default_factory=set)
    stopped_early: bool = False
    #: URLs permanently given up on: permanent HTTP errors (404/410/…)
    #: and transient failures that exhausted their retries and requeues
    #: (docs/architecture.md, "Fault model").  Order = abandonment order.
    dead_letters: list[str] = field(default_factory=list)
    #: crawler-specific extras (bandit stats, classifier confusion, …)
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def n_requests(self) -> int:
        return self.trace.n_requests

    @property
    def n_targets(self) -> int:
        return len(self.targets)

    @property
    def n_dead_letters(self) -> int:
        return len(self.dead_letters)


class Crawler(ABC):
    """A crawl policy run by the shared :class:`~repro.core.kernel.FetchKernel`.

    The kernel does the fetching, the bookkeeping and the loop; a
    subclass only decides which URL comes next and what to make of each
    fetch.  Its per-run state lives on the instance: :meth:`_begin`
    builds it fresh (root queued) at the start of every crawl, and
    :meth:`snapshot_state` / :meth:`restore_state` carry it through a
    checkpoint.
    """

    #: display name used in result tables (paper's crawler names)
    name: str = "crawler"

    #: polite crawlers fetch and honour robots.txt (one extra request)
    respect_robots: bool = True

    #: event sink for this crawler's client; None uses the environment's
    observer: Observer | None = None

    def crawl(
        self,
        env: CrawlEnvironment,
        budget: float | None = None,
        cost_model: str = "requests",
        checkpoint=None,
    ) -> CrawlResult:
        """Run the crawl until the frontier is empty or the budget is
        spent; ``checkpoint`` (a ``CrawlCheckpointer``) makes it durable."""
        kernel = FetchKernel(env, self, budget, cost_model)
        stopped_early = kernel.loop(checkpoint)
        trace = kernel.client.trace
        if stopped_early:
            trace.stopped_early_at = len(trace.records)
        return CrawlResult(
            crawler=self.name,
            site=env.graph.name,
            trace=trace,
            visited=kernel.visited,
            targets=kernel.targets,
            stopped_early=stopped_early,
            dead_letters=kernel.dead_letters,
            info={"ledger": kernel.client.ledger.snapshot(), **self._info()},
        )

    # -- the policy, called by the kernel --------------------------------

    @abstractmethod
    def _begin(self, kernel: FetchKernel) -> None:
        """Fresh per-run state with the root URL queued."""

    @abstractmethod
    def _has_next(self) -> bool:
        """Whether any URL is left to fetch."""

    @abstractmethod
    def _next(self) -> tuple[str, Any]:
        """Pop the next URL with its origin token (see ``FetchKernel.fetch``)."""

    @abstractmethod
    def _requeue(self, url: str, origin: Any) -> None:
        """Queue an abandoned URL again."""

    def _queued(self, url: str) -> bool:
        """Whether ``url`` waits in the frontier; the kernel does not
        follow a redirect there.  Disciplines without cheap membership
        answer False and follow it."""
        return False

    def _consume(self, outcome: Outcome | None, origin: Any) -> bool:
        """Act on a popped URL's fetch; True stops the crawl early."""
        return False

    def _info(self) -> dict[str, Any]:
        """Crawler-specific extras for :attr:`CrawlResult.info`."""
        return {}

    @abstractmethod
    def snapshot_state(self) -> dict:
        """The per-run policy state as a canonical-JSON-safe payload."""

    @abstractmethod
    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`snapshot_state`, applied after :meth:`_begin`."""
