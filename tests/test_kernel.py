"""The shared fetch kernel: one budget rule and one fault model for
every crawler the factory builds."""

from collections import Counter

import pytest

from repro.baselines import CRAWLER_NAMES, make_crawler
from repro.core.kernel import MAX_REQUEUES
from repro.http.client import RetryPolicy
from repro.http.environment import CrawlEnvironment
from repro.http.faults import FaultPlan, FaultSpec
from repro.http.messages import TRANSIENT_STATUSES
from repro.webgraph.sites import load_paper_site

_GRAPHS: dict = {}


def _paper_env(site: str) -> CrawlEnvironment:
    if site not in _GRAPHS:
        _GRAPHS[site] = load_paper_site(site, scale=0.3)
    return CrawlEnvironment(_GRAPHS[site])


@pytest.mark.parametrize("site,budget", [("ju", 155), ("ed", 106)])
@pytest.mark.parametrize("name", CRAWLER_NAMES)
def test_every_crawler_stays_within_budget(name, site, budget):
    """The budget is checked before every GET, redirect hops included:
    RANDOM on ju and DFS on ed used to end on a redirect one past it."""
    result = make_crawler(name, seed=1).crawl(_paper_env(site), budget=budget)
    assert result.n_requests <= budget


def _spy_requeues(crawler):
    """Record every requeue, and whether the kernel had already counted
    the URL as visited when it happened."""
    calls: list[tuple[str, bool]] = []
    begin, requeue = crawler._begin, crawler._requeue
    kernels = []

    def spy_begin(kernel):
        kernels.append(kernel)
        begin(kernel)

    def spy_requeue(url, origin):
        calls.append((url, url in kernels[-1].visited))
        requeue(url, origin)

    crawler._begin = spy_begin
    crawler._requeue = spy_requeue
    return calls


@pytest.mark.parametrize("name", CRAWLER_NAMES)
def test_abandoned_urls_are_requeued_then_dead_lettered(small_site, name):
    env = CrawlEnvironment(
        small_site,
        fault_plan=FaultPlan(FaultSpec(rate=0.4, kinds=("timeout",)), seed=3),
        retry_policy=RetryPolicy(seed=1, max_attempts=1),
    )
    crawler = make_crawler(name, seed=1)
    requeues = _spy_requeues(crawler)
    result = crawler.crawl(env)

    # max_attempts=1: every transient failure (the injected timeouts and
    # the site's own 5xx pages) abandons its GET on the spot; a lost
    # robots.txt just means no rules, it is not a crawl URL
    abandoned = Counter(
        r.url for r in result.trace.records
        if r.method == "GET" and r.status in TRANSIENT_STATUSES
        and not r.url.endswith("/robots.txt")
    )
    assert abandoned, "the fault plan must abandon some GETs"
    assert not any(was_visited for _, was_visited in requeues)
    requeued = Counter(url for url, _ in requeues)
    for url, n_abandoned in abandoned.items():
        assert n_abandoned <= MAX_REQUEUES + 1
        assert requeued[url] == min(n_abandoned, MAX_REQUEUES)
        if n_abandoned > MAX_REQUEUES:
            assert result.dead_letters.count(url) == 1
        # dead-lettered, or fetched again once requeued (the crawl ran dry)
        assert url in result.visited
    assert set(requeued) <= set(abandoned)
