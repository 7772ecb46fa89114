"""The simple baseline crawlers: BFS, DFS and RANDOM (Sec. 4.3).

* BFS keeps the frontier as a FIFO queue: all pages at link distance ℓ
  are crawled before any page at distance ℓ' > ℓ.
* DFS keeps it as a LIFO stack (rarely used in practice — robot traps —
  but a meaningful discipline on deep portal sites).
* RANDOM pops a uniformly random frontier URL.
"""

from __future__ import annotations

import random
from abc import abstractmethod
from collections import deque

from repro.core.base import Crawler
from repro.core.kernel import FetchKernel, Outcome


class FrontierCrawler(Crawler):
    """Exhaustive crawler: queue every new link, pop by a discipline."""

    @abstractmethod
    def _push(self, url: str) -> None: ...

    def _requeue(self, url: str, origin: None) -> None:
        self._push(url)

    def _consume(self, outcome: Outcome | None, origin: None) -> bool:
        if outcome is not None:
            for link in outcome.links:
                self._push(link.url)
        return False


class BFSCrawler(FrontierCrawler):
    """Breadth-first exhaustive crawler (FIFO frontier)."""

    name = "BFS"

    def _begin(self, kernel: FetchKernel) -> None:
        self._queue: deque[str] = deque([kernel.env.root_url])

    def _has_next(self) -> bool:
        return bool(self._queue)

    def _next(self) -> tuple[str, None]:
        return self._queue.popleft(), None

    def _push(self, url: str) -> None:
        self._queue.append(url)

    def snapshot_state(self) -> dict:
        return {"queue": list(self._queue)}

    def restore_state(self, state: dict) -> None:
        self._queue = deque(state["queue"])


class DFSCrawler(FrontierCrawler):
    """Depth-first crawler (LIFO frontier)."""

    name = "DFS"

    def _begin(self, kernel: FetchKernel) -> None:
        self._stack: list[str] = [kernel.env.root_url]

    def _has_next(self) -> bool:
        return bool(self._stack)

    def _next(self) -> tuple[str, None]:
        return self._stack.pop(), None

    def _push(self, url: str) -> None:
        self._stack.append(url)

    def snapshot_state(self) -> dict:
        return {"stack": list(self._stack)}

    def restore_state(self, state: dict) -> None:
        self._stack = list(state["stack"])


class RandomCrawler(FrontierCrawler):
    """Uniform-random frontier crawler."""

    name = "RANDOM"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def _begin(self, kernel: FetchKernel) -> None:
        self._rng = random.Random(self.seed)
        self._items: list[str] = [kernel.env.root_url]

    def _has_next(self) -> bool:
        return bool(self._items)

    def _next(self) -> tuple[str, None]:
        index = self._rng.randrange(len(self._items))
        self._items[index], self._items[-1] = self._items[-1], self._items[index]
        return self._items.pop(), None

    def _push(self, url: str) -> None:
        self._items.append(url)

    def snapshot_state(self) -> dict:
        from repro.checkpoint.codec import encode_rng_state

        return {"items": list(self._items), "rng": encode_rng_state(self._rng)}

    def restore_state(self, state: dict) -> None:
        from repro.checkpoint.codec import decode_rng_state

        self._items = list(state["items"])
        self._rng.setstate(decode_rng_state(state["rng"]))
