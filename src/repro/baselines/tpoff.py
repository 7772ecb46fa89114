"""TP-OFF: the offline-trained, tag-path-based crawler (Sec. 4.3).

Adaptation of ACEBot [Faheem & Senellart 2015] to target retrieval,
reproduced as the paper describes it:

1. *Bootstrap phase*: crawl the first ``bootstrap_pages`` (3 000 in the
   paper) breadth-first, grouping the tag paths of followed links with
   the same clustering as SB (Sec. 3.1).  Each fetched page's *benefit*
   — the true number of targets behind its links, given by an oracle,
   the paper's deliberate unfair advantage — is credited to the group
   of the link that led to the page.
2. *Exploitation phase*: the frontier becomes a priority queue over tag
   path groups ordered by average benefit; links whose group was never
   seen during bootstrap get a fixed benefit of 0.

Being trained *offline* on an early fragment of the site, TP-OFF is the
paper's ablation of SB-CLASSIFIER's online learning.
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.core.actions import ActionSpace
from repro.core.base import Crawler
from repro.core.kernel import PAGE, FetchKernel, Outcome
from repro.core.tagpath import TagPathVectorizer
from repro.webgraph.model import PageKind


class TPOffCrawler(Crawler):
    """Offline tag-path crawler with oracle benefits in its first phase."""

    name = "TP-OFF"

    def __init__(
        self,
        bootstrap_pages: int = 3000,
        theta: float = 0.75,
        ngram_n: int = 2,
        seed: int = 0,
    ) -> None:
        self.bootstrap_pages = bootstrap_pages
        self.theta = theta
        self.ngram_n = ngram_n
        self.seed = seed

    # -- oracle benefit (paper: provided "as if given by an oracle") ------

    def _page_benefit(self, url: str) -> int:
        page = self._graph.get(url)
        if page is None or page.kind is not PageKind.HTML:
            return 0
        return sum(1 for link in page.links if link.url in self._target_urls)

    def _group_priority(self, group: int | None) -> float:
        if group is None or group not in self._benefit_count:
            return 0.0  # unseen groups: fixed benefit 0
        return self._benefit_sum[group] / self._benefit_count[group]

    # -- policy -----------------------------------------------------------

    def _begin(self, kernel: FetchKernel) -> None:
        self._graph = kernel.env.graph
        self._target_urls = kernel.env.target_urls()  # oracle, bootstrap only
        self._vectorizer = TagPathVectorizer(n=self.ngram_n)
        self._actions = ActionSpace(self._vectorizer, theta=self.theta, seed=self.seed)
        # Bootstrap frontier: FIFO of (url, group of the inbound link).
        self._queue: deque[tuple[str, int | None]] = deque(
            [(kernel.env.root_url, None)]
        )
        # Benefit accumulators per tag-path group.
        self._benefit_sum: dict[int, float] = {}
        self._benefit_count: dict[int, int] = {}
        # Exploitation frontier: heap keyed by -avg benefit of the group.
        self._heap: list[tuple[float, int, str, int | None]] = []
        self._counter = 0
        self._fetched_html = 0

    def _rank(self, url: str, group: int | None) -> None:
        self._counter += 1
        heapq.heappush(
            self._heap, (-self._group_priority(group), self._counter, url, group)
        )

    def _bootstrapping(self) -> bool:
        return self._fetched_html < self.bootstrap_pages

    def _has_next(self) -> bool:
        # Phase 1: BFS bootstrap with oracle benefits.
        if self._queue and self._bootstrapping():
            return True
        # Phase transition: rank the remaining bootstrap frontier by the
        # learned group priorities; phase 2 exploits them.
        for url, group in self._queue:
            self._rank(url, group)
        self._queue.clear()
        return bool(self._heap)

    def _next(self) -> tuple[str, int | None]:
        if self._queue:
            return self._queue.popleft()
        _, _, url, group = heapq.heappop(self._heap)
        return url, group

    def _requeue(self, url: str, group: int | None) -> None:
        if self._bootstrapping():
            self._queue.append((url, group))
        else:
            self._rank(url, group)

    def _consume(self, outcome: Outcome | None, group: int | None) -> bool:
        if outcome is None or outcome.kind != PAGE:
            return False
        self._fetched_html += 1
        in_bootstrap = self._fetched_html <= self.bootstrap_pages
        if in_bootstrap and group is not None:
            benefit = float(self._page_benefit(outcome.url))
            self._benefit_sum[group] = self._benefit_sum.get(group, 0.0) + benefit
            self._benefit_count[group] = self._benefit_count.get(group, 0) + 1
        for link in outcome.links:
            link_group = self._actions.assign(link.tag_path)
            if in_bootstrap:
                self._queue.append((link.url, link_group))
            else:
                self._rank(link.url, link_group)
        return False

    def _info(self) -> dict:
        return {"n_groups": self._actions.n_actions}

    # -- checkpointing (repro.checkpoint) -----------------------------------

    def snapshot_state(self) -> dict:
        return {
            "vectorizer": self._vectorizer.snapshot_state(),
            "actions": self._actions.snapshot_state(),
            "queue": [list(entry) for entry in self._queue],
            "benefit": [
                [group, self._benefit_sum[group], count]
                for group, count in self._benefit_count.items()
            ],
            "heap": [list(entry) for entry in self._heap],
            "counter": self._counter,
            "fetched_html": self._fetched_html,
        }

    def restore_state(self, state: dict) -> None:
        self._vectorizer.restore_state(state["vectorizer"])
        self._actions.restore_state(state["actions"])
        self._queue = deque(tuple(entry) for entry in state["queue"])
        self._benefit_sum = {group: total for group, total, _ in state["benefit"]}
        self._benefit_count = {group: count for group, _, count in state["benefit"]}
        self._heap = [tuple(entry) for entry in state["heap"]]
        self._counter = state["counter"]
        self._fetched_html = state["fetched_html"]
