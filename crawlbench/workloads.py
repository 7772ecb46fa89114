"""The three benchmark workloads and the checks on their outputs.

Each workload is a set-up plus a measured operation (an *op*) that the
harness in ``run.py`` repeats for the run's duration:

* ``cold_sb`` — one SB-CLASSIFIER crawl of site ``ju`` (scale 1.0,
  budget 3000) on a freshly generated site and a fresh
  ``CrawlEnvironment``, so every page is rendered, parsed and resolved
  on a cache miss;
* ``warm_sb`` — the same crawl on one environment primed during set-up
  by an uncounted crawl, the way ``experiments/runner.ResultCache``
  runs every paper table;
* ``campaign_bfs`` — ``run_campaign`` with the BFS crawler over six
  paper sites at scale 0.5, two worker processes, JSONL traces and
  durable checkpoints every 25 steps: the only workload that writes.

``check`` turns an op's raw output into an :class:`Op` record and a
list of problems; an op with a problem counts all its requests as
failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.metrics import requests_to_fraction
from repro.campaign import (
    CampaignSpec,
    MultiprocessingBackend,
    SerialBackend,
    run_campaign,
    trace_digest,
)
from repro.campaign.checkpoint import SHARD_OUTCOME_KIND, campaign_store
from repro.core.crawler import SBConfig, SBCrawler
from repro.http.environment import CrawlEnvironment
from repro.obs.report import trace_from_events
from repro.obs.sinks import read_events
from repro.webgraph.sites import load_paper_site

SB_SITE = "ju"
SB_SCALE = 1.0
SB_BUDGET = 3000
CAMPAIGN_SITES = ("be", "cl", "cn", "qa", "ju", "ed")
CAMPAIGN_SCALE = 0.5
#: one shard per worker, so the seeded dispatch order cannot change
#: how shards pack onto workers, and with it the campaign's wall time
CAMPAIGN_SHARDS = 2
CAMPAIGN_WORKERS = 2
#: the ``python -m repro campaign --checkpoint-every`` default
CHECKPOINT_EVERY = 25


@dataclass(frozen=True)
class Op:
    """What one measured operation produced."""

    key: int             # the op's input: crawl seed or campaign seed
    wall_s: float
    requests: int        # GET + HEAD
    targets: int
    r90: float           # requests_to_fraction, mean over sites
    digest: str          # trace digest (crawl) or report digest (campaign)
    abandoned: int = 0

    def outputs(self) -> tuple:
        """The fields that must repeat exactly for the same input."""
        return (self.requests, self.targets, self.r90, self.digest)


def _sb_crawl(env: CrawlEnvironment, seed: int):
    return SBCrawler(SBConfig(seed=seed)).crawl(env, budget=SB_BUDGET)


def _check_sb(key: int, result, wall_s: float, env: CrawlEnvironment
              ) -> tuple[Op, list[str]]:
    problems = []
    if result.n_requests > SB_BUDGET:
        problems.append(f"seed {key}: {result.n_requests} requests > budget {SB_BUDGET}")
    traced_targets = {r.url for r in result.trace.records if r.is_target}
    if traced_targets != result.targets:
        problems.append(f"seed {key}: trace targets differ from counted targets")
    strays = result.targets - env.target_urls()
    if strays:
        problems.append(f"seed {key}: {len(strays)} counted targets are not "
                        "targets in the site graph")
    r90 = requests_to_fraction(result.trace, env.total_targets(), env.n_available())
    if math.isinf(r90):
        problems.append(f"seed {key}: 90% of targets never reached")
    op = Op(key=key, wall_s=wall_s, requests=result.n_requests,
            targets=result.n_targets, r90=r90, digest=trace_digest(result.trace))
    return op, problems


class _SBCrawls:
    """An op is one SB-CLASSIFIER crawl of ``self.env``."""

    env: CrawlEnvironment

    def execute(self, key: int):
        return _sb_crawl(self.env, key)

    def check(self, key: int, result, wall_s: float) -> tuple[Op, list[str]]:
        return _check_sb(key, result, wall_s, self.env)


class ColdSB(_SBCrawls):
    """A fresh site and environment for every crawl (all cache misses)."""

    setup_per_op = True
    #: each of the two inputs twice: the determinism check, and a median
    #: of at least four ops
    min_ops = 4

    def __init__(self) -> None:
        self.references: dict[int, Op] = {}

    def inputs(self, seed: int) -> list[int]:
        return [seed, seed + 1]

    def setup(self, seed: int) -> None:
        self.env = CrawlEnvironment(load_paper_site(SB_SITE, scale=SB_SCALE))


class WarmSB(_SBCrawls):
    """Crawls on one environment primed by an uncounted crawl."""

    setup_per_op = False
    #: three inputs plus one repeat for the determinism check
    min_ops = 4
    #: each set-up includes a whole cold crawl, so only two per run
    setups = 2

    def __init__(self) -> None:
        #: the priming crawl of seed s is a cold crawl: the warm crawl of
        #: seed s must reproduce its trace digest exactly
        self.references: dict[int, Op] = {}
        self.setup_problems: list[str] = []

    def inputs(self, seed: int) -> list[int]:
        return [seed, seed + 1, seed + 2]

    def setup(self, seed: int) -> None:
        self.env = CrawlEnvironment(load_paper_site(SB_SITE, scale=SB_SCALE))
        prime, problems = _check_sb(seed, _sb_crawl(self.env, seed), 0.0, self.env)
        self.setup_problems += problems
        reference = self.references.setdefault(seed, prime)
        if reference.outputs() != prime.outputs():
            self.setup_problems.append(f"seed {seed}: priming crawls differ")


class CampaignBFS:
    """A durable sharded BFS campaign over six sites."""

    setup_per_op = False
    #: one input, repeated for the determinism check
    min_ops = 2
    setups = 5

    def __init__(self, work_root: Path, serial: bool = False) -> None:
        self.work_root = work_root
        self.serial = serial
        self.truth: dict[str, tuple[set[str], int, int]] = {}
        self.references: dict[int, Op] = {}

    def inputs(self, seed: int) -> list[int]:
        return [seed]

    def setup(self, seed: int) -> None:
        """Generate every site once in this process: the ground truth
        (target set, target count, available pages) the checks use."""
        self.truth = {}
        for site in CAMPAIGN_SITES:
            env = CrawlEnvironment(load_paper_site(site, scale=CAMPAIGN_SCALE))
            self.truth[site] = (env.target_urls(), env.total_targets(),
                                env.n_available())

    def execute(self, key: int):
        work = Path(tempfile.mkdtemp(prefix="campaign-", dir=self.work_root))
        (work / "trace").mkdir()
        spec = CampaignSpec(
            sites=CAMPAIGN_SITES, crawler="BFS", seed=key, scale=CAMPAIGN_SCALE,
            n_shards=CAMPAIGN_SHARDS, n_workers=CAMPAIGN_WORKERS,
            trace_dir=str(work / "trace"),
        )
        backend = (SerialBackend() if self.serial
                   else MultiprocessingBackend(n_workers=CAMPAIGN_WORKERS))
        report = run_campaign(spec, backend=backend,
                              checkpoint_dir=str(work / "checkpoint"),
                              checkpoint_every=CHECKPOINT_EVERY)
        return report, work

    def check(self, key: int, raw, wall_s: float) -> tuple[Op, list[str]]:
        report, work = raw
        try:
            return self._check(key, report, work, wall_s)
        finally:
            shutil.rmtree(work)

    def _check(self, key, report, work: Path, wall_s: float):
        problems = []
        if report.partial:
            problems.append("campaign report is partial")
        canonical = json.dumps(json.loads(report.to_json()), sort_keys=True,
                               separators=(",", ":"))
        if hashlib.sha256(canonical.encode("utf-8")).hexdigest() != report.digest:
            problems.append("report digest does not re-derive from its payload")
        saved = campaign_store(work / "checkpoint").read_all(kind=SHARD_OUTCOME_KIND)
        if len(saved) != report.n_shards:
            problems.append(f"{len(saved)} shard outcomes checkpointed, "
                            f"expected {report.n_shards}")
        r90s = []
        for row in report.site_rows:
            site = row["site"]
            _, events = read_events(work / "trace" / f"{site}-BFS-s{key}.jsonl")
            trace = trace_from_events(events)
            if trace_digest(trace) != row["trace_digest"]:
                problems.append(f"{site}: JSONL trace does not match the report")
            targets, total, available = self.truth[site]
            found = [r.url for r in trace.records if r.is_target]
            if len(found) != row["n_targets"] or not set(found) <= targets:
                problems.append(f"{site}: counted targets are not the site's targets")
            r90 = requests_to_fraction(trace, total, available)
            if math.isinf(r90):
                problems.append(f"{site}: 90% of targets never reached")
            r90s.append(r90)
        if sum(row["n_requests"] for row in report.site_rows) != report.n_requests:
            problems.append("site request counts do not add up to the ledger")
        op = Op(key=key, wall_s=wall_s, requests=report.n_requests,
                targets=report.n_targets, r90=sum(r90s) / len(r90s),
                digest=report.digest,
                abandoned=int(report.metrics.as_dict().get("requests_abandoned", 0)))
        return op, problems
