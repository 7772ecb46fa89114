"""FOCUSED: classic focused crawling adapted to target retrieval (Sec. 4.3).

Represents early focused crawlers [Chakrabarti et al. 1999; Diligenti
et al. 2000]: a logistic-regression link classifier estimates the
probability that a hyperlink leads to a target, and the frontier is a
priority queue ordered by that estimate.  Features follow standard
focused-crawler practice: the (approximate) depth of the source page, a
character 2-gram BoW of the URL and one of the link's anchor text.
The model is retrained periodically on pages already crawled, at no
extra HTTP cost.  Topic-oriented features are intentionally excluded.
"""

from __future__ import annotations

import heapq

from repro.core.base import Crawler
from repro.core.kernel import TARGET, FetchKernel, Outcome
from repro.ml.features import HashedVector, hashed_bow, merge_vectors
from repro.ml.linear import LogisticRegressionSGD

_FEATURE_DIM = 1 << 14


class FocusedCrawler(Crawler):
    """Priority-frontier crawler driven by an online link classifier."""

    name = "FOCUSED"

    def __init__(self, retrain_every: int = 50, seed: int = 0) -> None:
        self.retrain_every = retrain_every
        self.seed = seed

    # -- features --------------------------------------------------------

    def _features(self, url: str, anchor: str, depth: int) -> HashedVector:
        parts = [
            hashed_bow(url, n=2, dim=_FEATURE_DIM, seed=11),
            hashed_bow(f"depth:{min(depth, 30)}", n=8, dim=_FEATURE_DIM, seed=13),
        ]
        if anchor:
            parts.append(hashed_bow(anchor, n=2, dim=_FEATURE_DIM, seed=12))
        return merge_vectors(parts)

    # -- frontier discipline -----------------------------------------------

    def _begin(self, kernel: FetchKernel) -> None:
        self._heap: list[tuple[float, int, str]] = []
        self._counter = 0
        self._model = LogisticRegressionSGD(_FEATURE_DIM, seed=self.seed)
        self._pending_features: dict[str, HashedVector] = {}
        self._batch_x: list[HashedVector] = []
        self._batch_y: list[int] = []
        self._fetched = 0
        #: approximate link depth of every queued URL (a feature)
        self._depths: dict[str, int] = {kernel.env.root_url: 0}
        self._push(kernel.env.root_url, "", 0)

    def _push(self, url: str, anchor: str, depth: int) -> None:
        features = self._features(url, anchor, depth)
        self._pending_features[url] = features
        score = self._model.predict_proba(features) if self._model.n_updates else 0.5
        self._counter += 1
        heapq.heappush(self._heap, (-score, self._counter, url))

    def _has_next(self) -> bool:
        return bool(self._heap)

    def _next(self) -> tuple[str, None]:
        return heapq.heappop(self._heap)[2], None

    def _requeue(self, url: str, origin: None) -> None:
        self._push(url, "", self._depths.get(url, 0))

    # -- learning ------------------------------------------------------------

    def _consume(self, outcome: Outcome | None, origin: None) -> bool:
        if outcome is None:
            return False
        features = self._pending_features.pop(outcome.url, None)
        if features is not None:
            self._batch_x.append(features)
            self._batch_y.append(1 if outcome.kind == TARGET else 0)
            self._fetched += 1
            if self._fetched % self.retrain_every == 0 and self._batch_x:
                self._model.partial_fit(self._batch_x, self._batch_y)
                self._batch_x.clear()
                self._batch_y.clear()
        depth = self._depths.get(outcome.url, 0) + 1
        for link in outcome.links:
            self._depths[link.url] = depth
            self._push(link.url, link.anchor, depth)
        return False

    # -- checkpointing (repro.checkpoint) -----------------------------------

    def snapshot_state(self) -> dict:
        return {
            "heap": [list(entry) for entry in self._heap],
            "counter": self._counter,
            "model": self._model.snapshot_state(),
            "pending": [
                [url, features.snapshot_state()]
                for url, features in self._pending_features.items()
            ],
            "batch_x": [features.snapshot_state() for features in self._batch_x],
            "batch_y": list(self._batch_y),
            "fetched": self._fetched,
            "depths": sorted(self._depths.items()),
        }

    def restore_state(self, state: dict) -> None:
        self._heap = [tuple(entry) for entry in state["heap"]]
        self._counter = state["counter"]
        self._model.restore_state(state["model"])
        self._pending_features = {
            url: HashedVector.from_state(features)
            for url, features in state["pending"]
        }
        self._batch_x = [HashedVector.from_state(f) for f in state["batch_x"]]
        self._batch_y = list(state["batch_y"])
        self._fetched = state["fetched"]
        self._depths = dict(state["depths"])
