"""The OMNISCIENT upper-bound crawler (Sec. 4.3).

Knows the full set of target URLs V* before the crawl starts and
fetches them one after the other — no navigation, no discovery cost.
Since optimally covering all targets through the link graph is NP-hard
(Prop. 4), this unreachable bound is the paper's efficiency ceiling.
"""

from __future__ import annotations

from collections import deque

from repro.core.base import Crawler
from repro.core.kernel import FetchKernel


class OmniscientCrawler(Crawler):
    """Fetches the ground-truth target list directly."""

    name = "OMNISCIENT"

    #: no navigation, so no robots.txt either: every request is a target
    respect_robots = False

    def _begin(self, kernel: FetchKernel) -> None:
        self._pending = deque(sorted(kernel.env.target_urls()))

    def _has_next(self) -> bool:
        return bool(self._pending)

    def _next(self) -> tuple[str, None]:
        return self._pending.popleft(), None

    def _requeue(self, url: str, origin: None) -> None:
        self._pending.append(url)

    def snapshot_state(self) -> dict:
        return {"pending": list(self._pending)}

    def restore_state(self, state: dict) -> None:
        self._pending = deque(state["pending"])
