"""The fetch kernel: the one crawl loop every crawler runs (Algorithm 4).

A crawler is a *policy*: it picks the next URL and consumes what the
fetch produced.  Everything else lives here, shared by SB and every
baseline, so crawlers differ only in their policy and the request
counts of Table 2 compare like with like:

* the robots.txt fetch and the seen / visited / targets / dead-letter
  bookkeeping;
* a budget check before every request: popped URLs, redirect hops,
  HEADs and immediate target fetches alike;
* response dispatch: an abandoned request (transient failure, retries
  exhausted) goes back to the policy up to ``MAX_REQUEUES`` times and is
  then dead-lettered; permanent errors are dead-lettered; redirects are
  followed up to ``MAX_CHAIN_DEPTH`` hops unless the policy already
  queued the destination; the MIME type tells a page from a target;
* HTML parsing and the link filter (unseen, in-site, extension
  blocklist, robots.txt);
* the loop — checkpoint tick, budget check, pop, fetch — and its one
  checkpoint payload: the kernel's state plus the policy's.

The policy interface is documented on :class:`repro.core.base.Crawler`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.html.parse import ParsedPage
from repro.http.environment import CrawlEnvironment
from repro.http.messages import Response
from repro.http.robots import RobotsPolicy, fetch_robots_policy
from repro.webgraph.mime import is_blocklisted_extension

#: Times an abandoned URL goes back to its policy before it is
#: dead-lettered (docs/architecture.md, "Fault model").
MAX_REQUEUES = 2

#: Recursion guard for redirect / immediate-target chains.
MAX_CHAIN_DEPTH = 25

#: Payload kind of every crawl checkpoint.
CRAWL_KIND = "crawl"

PAGE = "page"
TARGET = "target"
FAILURE = "failure"


@dataclass(frozen=True)
class Outcome:
    """What one fetch produced, after redirects were followed.

    ``kind`` is :data:`PAGE` (an HTML page; ``links`` yields its new
    links, each marked seen as it is drawn), :data:`TARGET` (counted in
    the kernel's targets) or :data:`FAILURE` (an HTTP error or an
    interrupted transfer).  ``depth`` is the chain depth of ``url``:
    fetches made while consuming this outcome pass ``depth + 1``.
    """

    kind: str
    url: str
    depth: int
    parsed: ParsedPage | None = None
    links: Iterable = ()


class FetchKernel:
    """One crawl run: the client, the shared bookkeeping and the loop."""

    def __init__(
        self,
        env: CrawlEnvironment,
        policy,
        budget: float | None = None,
        cost_model: str = "requests",
    ) -> None:
        self.env = env
        self.policy = policy
        self.budget = budget
        self.cost_model = cost_model
        self.observer = (
            policy.observer if policy.observer is not None else env.observer
        )
        self.client = env.new_client(policy.name, observer=self.observer)
        self.robots = RobotsPolicy()
        self.seen: set[str] = {env.root_url}
        self.visited: set[str] = set()
        self.targets: set[str] = set()
        self.dead_letters: list[str] = []
        self.requeues: dict[str, int] = {}
        #: answered GETs so far (Algorithm 3's time step t)
        self.t = 0

    # -- the loop ----------------------------------------------------------

    def loop(self, checkpoint=None) -> bool:
        """Crawl until the policy runs dry, the budget is spent or the
        policy stops early; returns whether it stopped early.

        ``checkpoint`` is a :class:`repro.checkpoint.CrawlCheckpointer`.
        Its payload is taken at the top of an iteration, after the
        robots fetch and root seeding, so a resumed run repeats neither.
        """
        policy = self.policy
        policy._begin(self)
        try:
            if checkpoint is not None and checkpoint.resume_payload is not None:
                self._resume(checkpoint.resume_payload)
            elif policy.respect_robots:
                self.robots = fetch_robots_policy(self.client, self.env.root_url)
            while policy._has_next():
                if checkpoint is not None:
                    # May raise CrawlInterrupted after saving a final
                    # checkpoint; resume re-executes this iteration exactly.
                    checkpoint.tick(self._payload)
                if self.budget_exhausted():
                    break
                url, origin = policy._next()
                if policy._consume(self.fetch(url, origin), origin):
                    return True
            return False
        finally:
            # Policies keep the kernel; dropping the way back frees a
            # finished crawl by refcount instead of the cycle collector.
            self.policy = None

    def budget_exhausted(self) -> bool:
        if self.budget is None:
            return False
        return self.client.budget_spent(self.cost_model) >= self.budget

    # -- requests ------------------------------------------------------------

    def fetch(self, url: str, origin: Any = None, depth: int = 0) -> Outcome | None:
        """GET ``url`` and dispatch on the response.

        ``origin`` is the policy's token for the URL (an action, a
        group, ...), handed back with it on requeue.  Returns ``None``
        when nothing was fetched or nothing came of it: chain too deep,
        already visited, budget spent, abandoned, a redirect not
        followed, or a MIME type that is neither HTML nor a target.
        """
        if depth > MAX_CHAIN_DEPTH or url in self.visited or self.budget_exhausted():
            return None
        response: Response = self.client.get(url)
        if response.abandoned:
            count = self.requeues.get(url, 0)
            if count < MAX_REQUEUES:
                self.requeues[url] = count + 1
                self.policy._requeue(url, origin)
            else:
                self.dead_letters.append(url)
                self.visited.add(url)
            return None
        self.visited.add(url)
        self.t += 1
        if response.interrupted or response.is_error:
            if response.is_permanent_error:
                self.dead_letters.append(url)
            return Outcome(FAILURE, url, depth)
        if response.is_redirect:
            location = response.redirect_to
            if (
                location
                and self.env.in_site(location)
                and location not in self.visited
                and not self.policy._queued(location)
            ):
                self.seen.add(location)
                return self.fetch(location, origin, depth + 1)
            return None
        mime = response.mime_root()
        if mime is None:
            return None
        if "html" in mime:
            parsed = self.env.parse(response)
            return Outcome(PAGE, url, depth, parsed, self._new_links(parsed))
        if self.env.is_target_mime(mime):
            self.targets.add(url)
            return Outcome(TARGET, url, depth)
        return None

    def head(self, url: str) -> Response | None:
        """HEAD ``url``, or ``None`` when the budget is spent."""
        if self.budget_exhausted():
            return None
        return self.client.head(url)

    # -- the link filter -----------------------------------------------------

    def admit(self, url: str) -> bool:
        """Whether ``url`` is new, in-site, not blocklisted and allowed
        by robots.txt; an admitted URL is marked seen."""
        if (
            url in self.seen
            or not self.env.in_site(url)
            or is_blocklisted_extension(url)
            or not self.robots.allowed(url)
        ):
            return False
        self.seen.add(url)
        return True

    def _new_links(self, parsed: ParsedPage):
        # Lazy on purpose: a policy that fetches while it walks the links
        # (SB's immediate targets) must see what those fetches marked seen.
        for link in parsed.links:
            if self.admit(link.url):
                yield link

    # -- checkpointing (repro.checkpoint) -----------------------------------

    def snapshot_state(self) -> dict:
        return {
            "client": self.client.snapshot_state(),
            "robots": self.robots.snapshot_state(),
            "t": self.t,
            "seen": sorted(self.seen),
            "visited": sorted(self.visited),
            "targets": sorted(self.targets),
            "dead_letters": list(self.dead_letters),
            "requeues": dict(self.requeues),
        }

    def restore_state(self, state: dict) -> None:
        self.client.restore_state(state["client"])
        self.robots.restore_state(state["robots"])
        self.t = state["t"]
        self.seen = set(state["seen"])
        self.visited = set(state["visited"])
        self.targets = set(state["targets"])
        self.dead_letters = list(state["dead_letters"])
        self.requeues = dict(state["requeues"])

    def _payload(self) -> dict:
        """The crawl's full state as a canonical-JSON-safe payload (see
        docs/checkpoint.md for the schema)."""
        return {
            "kind": CRAWL_KIND,
            "crawler": self.policy.name,
            "site": self.env.graph.name,
            "kernel": self.snapshot_state(),
            "policy": self.policy.snapshot_state(),
        }

    def _resume(self, payload: dict) -> None:
        """Inverse of :meth:`_payload`; fails loudly when the checkpoint
        belongs to a different crawler or site."""
        from repro.checkpoint.store import CheckpointError

        if payload.get("kind") != CRAWL_KIND:
            raise CheckpointError(
                f"checkpoint kind {payload.get('kind')!r} is not a "
                f"{CRAWL_KIND} snapshot"
            )
        name, site = self.policy.name, self.env.graph.name
        if payload.get("crawler") != name or payload.get("site") != site:
            raise CheckpointError(
                f"checkpoint is for {payload.get('crawler')!r} on "
                f"{payload.get('site')!r}, not {name!r} on {site!r}"
            )
        self.restore_state(payload["kernel"])
        self.policy.restore_state(payload["policy"])
