"""Baseline crawlers of the paper's evaluation (Sec. 4.3).

* :class:`BFSCrawler`, :class:`DFSCrawler`, :class:`RandomCrawler` —
  the simple frontier disciplines;
* :class:`OmniscientCrawler` — knows every target URL in advance
  (unreachable upper bound, since optimal crawling is NP-hard);
* :class:`FocusedCrawler` — classic focused crawling with a
  priority-queue frontier ordered by a link classifier;
* :class:`TPOffCrawler` — the offline tag-path crawler (ACEBot-style),
  with the paper's oracle benefit during the first 3 k pages;
* :class:`TresCrawler` — the topical RL crawler adaptation with its
  three "unfair advantages".

:func:`make_crawler` builds any of them, or SB, by its table name.
"""

from dataclasses import replace

from repro.baselines.simple import BFSCrawler, DFSCrawler, RandomCrawler
from repro.baselines.omniscient import OmniscientCrawler
from repro.baselines.focused import FocusedCrawler
from repro.baselines.tpoff import TPOffCrawler
from repro.baselines.tres import TresCrawler
from repro.core.base import Crawler
from repro.core.crawler import SBConfig, SBCrawler

_FACTORIES = {
    "SB-ORACLE": lambda seed, sb: SBCrawler(replace(sb, use_oracle=True, seed=seed)),
    "SB-CLASSIFIER": lambda seed, sb: SBCrawler(
        replace(sb, use_oracle=False, seed=seed)
    ),
    "FOCUSED": lambda seed, sb: FocusedCrawler(seed=seed),
    "TP-OFF": lambda seed, sb: TPOffCrawler(bootstrap_pages=300, seed=seed),
    "BFS": lambda seed, sb: BFSCrawler(),
    "DFS": lambda seed, sb: DFSCrawler(),
    "RANDOM": lambda seed, sb: RandomCrawler(seed=seed),
    "OMNISCIENT": lambda seed, sb: OmniscientCrawler(),
    "TRES": lambda seed, sb: TresCrawler(seed=seed),
}

#: Every name :func:`make_crawler` accepts.
CRAWLER_NAMES: tuple[str, ...] = tuple(_FACTORIES)


def make_crawler(
    name: str, seed: int = 1, sb_config: SBConfig | None = None
) -> Crawler:
    """Instantiate a crawler by its table name; ``sb_config`` sets the
    SB hyper-parameters other than the seed and the oracle switch."""
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValueError(f"unknown crawler: {name!r}")
    return factory(seed, sb_config or SBConfig())


__all__ = [
    "CRAWLER_NAMES",
    "make_crawler",
    "BFSCrawler",
    "DFSCrawler",
    "RandomCrawler",
    "OmniscientCrawler",
    "FocusedCrawler",
    "TPOffCrawler",
    "TresCrawler",
]
