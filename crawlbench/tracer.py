"""Span recorder that instruments the crawler from outside.

The program under test is not modified: :class:`Tracer` replaces the
public entry points of each layer with timing wrappers while it is
armed (``with Tracer() as tracer:``) and puts the originals back on
exit.  A module-level function is replaced in every loaded ``repro``
module that bound it by name (``from repro.html.parse import
parse_page``), so call sites see the wrapper whichever way they import.

Each call becomes a span ``(name, start, end, parent)``.  Spans live in
flat arrays while the crawl runs and are written out once, after it.
A layer's self time is its spans' duration minus the time covered by
their child spans.  Wrappers cannot reach a spawned worker process, so
traced campaigns run on the serial backend.
"""

from __future__ import annotations

import gzip
import importlib
import math
import sys
import time
from array import array
from collections import defaultdict

#: (span name, module, attribute) for every wrapped entry point.
#: Attributes with a dot are methods: "Class.method".
WRAPPED = (
    ("webgraph.load_paper_site", "repro.webgraph.sites", "load_paper_site"),
    ("webgraph.model.same_site", "repro.webgraph.model", "same_site"),
    ("webgraph.canonical.resolve_link", "repro.webgraph.canonical", "resolve_link"),
    ("html.render", "repro.html.render", "render_page"),
    ("html.parse", "repro.html.parse", "parse_page"),
    ("http.server.get", "repro.http.server", "SimulatedServer.get"),
    ("http.server.head", "repro.http.server", "SimulatedServer.head"),
    ("http.environment.parse", "repro.http.environment", "CrawlEnvironment.parse"),
    ("http.client.get", "repro.http.client", "HttpClient.get"),
    ("http.client.head", "repro.http.client", "HttpClient.head"),
    ("core.url_classifier.add_labeled", "repro.core.url_classifier",
     "OnlineUrlClassifier.add_labeled"),
    ("core.url_classifier.classify", "repro.core.url_classifier",
     "OnlineUrlClassifier.classify"),
    ("ml.features.hashed_bow", "repro.ml.features", "hashed_bow"),
    ("ml.linear.partial_fit", "repro.ml.linear", "LogisticRegressionSGD.partial_fit"),
    ("core.actions.assign", "repro.core.actions", "ActionSpace.assign"),
    ("core.tagpath.project", "repro.core.tagpath", "TagPathVectorizer.project"),
    ("core.hnsw.search", "repro.core.hnsw", "HnswIndex.search"),
    ("core.bandit.select", "repro.core.bandit", "SleepingBandit.select"),
    ("core.frontier.add", "repro.core.frontier", "Frontier.add"),
    ("core.frontier.pop_from_action", "repro.core.frontier", "Frontier.pop_from_action"),
    ("core.frontier.pop_random", "repro.core.frontier", "Frontier.pop_random"),
    ("core.frontier.awake_actions", "repro.core.frontier", "Frontier.awake_actions"),
    ("checkpoint.tick", "repro.checkpoint.controller", "CrawlCheckpointer.tick"),
    ("checkpoint.store.write", "repro.checkpoint.store", "CheckpointStore.write_checkpoint"),
    ("checkpoint.store.prune", "repro.checkpoint.store", "CheckpointStore.prune_old"),
    ("obs.sinks.on_event", "repro.obs.sinks", "JsonlSink.on_event"),
    ("campaign.partition", "repro.campaign.partitions", "partition_sites"),
    ("campaign.merge", "repro.campaign.merge", "merge_outcomes"),
    ("campaign.run_shard", "repro.campaign.workers", "run_shard"),
)

_HTML_MIME = "text/html; charset=utf-8"


class Tracer:
    """Arms the wrappers, records spans and work counters."""

    def __init__(self) -> None:
        self.names = [name for name, _, _ in WRAPPED]
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        # Work counters, recorded at the same boundaries as the spans.
        self.counts: dict[str, float] = defaultdict(float)
        self.resolve_args: set[tuple[str, str]] = set()
        self._hooks = {
            "html.render": self._on_render,
            "html.parse": self._on_parse,
            "http.server.get": self._on_server_get,
            "http.client.get": self._on_client_response,
            "http.client.head": self._on_client_response,
            "webgraph.canonical.resolve_link": self._on_resolve,
            "core.url_classifier.add_labeled": self._on_add_labeled,
            "ml.linear.partial_fit": self._on_partial_fit,
            "checkpoint.store.write": self._on_store_write,
        }

    # -- counters ----------------------------------------------------

    def _on_render(self, args, kwargs, result) -> None:
        self.counts["render_bytes"] += len(result)

    def _on_parse(self, args, kwargs, result) -> None:
        self.counts["parse_bytes"] += len(args[0])

    def _on_server_get(self, args, kwargs, result) -> None:
        if result.status == 200 and result.mime_type == _HTML_MIME:
            self.counts["html_gets"] += 1

    def _on_client_response(self, args, kwargs, result) -> None:
        if result.status >= 400:
            self.counts["error_responses"] += 1

    def _on_resolve(self, args, kwargs, result) -> None:
        self.resolve_args.add((args[0], args[1]))

    def _on_add_labeled(self, args, kwargs, result) -> None:
        if args[2].value != "Neither":
            self.counts["fresh_labels"] += 1

    def _on_partial_fit(self, args, kwargs, result) -> None:
        self.counts["examples_trained"] += len(args[1])

    def _on_store_write(self, args, kwargs, result) -> None:
        for name in ("state.json", "manifest.json"):
            self.counts["store_bytes"] += (result / name).stat().st_size

    # -- arming ------------------------------------------------------

    def _wrap(self, name_id: int, fn):
        hook = self._hooks.get(self.names[name_id])
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent
        )
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        for name_id, (_, module_name, attribute) in enumerate(WRAPPED):
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._patch(owner, method, self._wrap(name_id, original))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(name_id, original)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, wrapper)
        return self

    def _patch(self, owner, key: str, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def __exit__(self, *exc_info) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results -----------------------------------------------------

    def layer_times(self) -> dict[str, tuple[int, float]]:
        """Span name → (calls, self seconds)."""
        n = len(self.span_name)
        child_time = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child_time[parent] += self.span_end[i] - self.span_start[i]
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            name_id = self.span_name[i]
            calls[name_id] += 1
            own[name_id] += self.span_end[i] - self.span_start[i] - child_time[i]
        return {name: (calls[k], own[k]) for k, name in enumerate(self.names)}

    def durations(self, name: str) -> list[float]:
        """Duration of every span called ``name``, in start order."""
        name_id = self.names.index(name)
        return [
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_name))
            if self.span_name[i] == name_id
        ]

    def client_gap_p99_ms(self) -> float:
        """99th percentile of the idle time between consecutive HTTP
        client requests (stalls such as classifier training batches)."""
        client_ids = {
            self.names.index("http.client.get"), self.names.index("http.client.head")
        }
        spans = [
            (self.span_start[i], self.span_end[i])
            for i in range(len(self.span_name))
            if self.span_name[i] in client_ids
        ]
        gaps = sorted(
            (later[0] - earlier[1]) * 1000.0
            for earlier, later in zip(spans, spans[1:])
        )
        if not gaps:
            return 0.0
        return gaps[min(len(gaps) - 1, math.ceil(0.99 * len(gaps)) - 1)]

    def write_spans(self, path) -> None:
        """Write every span as gzip'd CSV: name,start_s,end_s,parent."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("span,name,start_s,end_s,parent\n")
            for i in range(len(self.span_name)):
                handle.write(
                    f"{i},{self.names[self.span_name[i]]},{self.span_start[i]:.9f},"
                    f"{self.span_end[i]:.9f},{self.span_parent[i]}\n"
                )


def per_layer_metrics(tracer: Tracer, op_s: float,
                      untraced_op_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metric catalogue (name → (value, unit))."""
    layers = tracer.layer_times()
    counts = tracer.counts

    def calls(*names: str) -> float:
        return float(sum(layers[name][0] for name in names))

    def self_s(*names: str) -> float:
        return sum(layers[name][1] for name in names)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def hit_ratio(misses: float, lookups: float) -> float:
        return 1.0 - misses / lookups if lookups else 0.0

    frontier = ("core.frontier.add", "core.frontier.pop_from_action",
                "core.frontier.pop_random", "core.frontier.awake_actions")
    client = ("http.client.get", "http.client.head")
    resolve_calls = calls("webgraph.canonical.resolve_link")
    shard_seconds = tracer.durations("campaign.run_shard")
    mean_shard = sum(shard_seconds) / len(shard_seconds) if shard_seconds else 0.0
    metrics = {
        "ml.linear.partial_fit.calls": (calls("ml.linear.partial_fit"), "count"),
        "ml.linear.partial_fit.self_s": (self_s("ml.linear.partial_fit"), "s"),
        "ml.linear.partial_fit.fresh_ratio": (
            ratio(counts["fresh_labels"], counts["examples_trained"]), "ratio"),
        "html.render.bytes": (counts["render_bytes"], "bytes"),
        "http.server.self_s": (self_s("http.server.get", "http.server.head"), "s"),
        "http.server.render_hit_ratio": (
            hit_ratio(calls("html.render"), counts["html_gets"]), "ratio"),
        "html.parse.bytes": (counts["parse_bytes"], "bytes"),
        "http.environment.parse.calls": (calls("http.environment.parse"), "count"),
        "http.environment.parse.hit_ratio": (
            hit_ratio(calls("html.parse"), calls("http.environment.parse")),
            "ratio"),
        "webgraph.canonical.resolve_link.distinct_ratio": (
            ratio(len(tracer.resolve_args), resolve_calls), "ratio"),
        "checkpoint.tick.self_s": (self_s("checkpoint.tick"), "s"),
        "checkpoint.store.writes": (calls("checkpoint.store.write"), "count"),
        "checkpoint.store.self_s": (
            self_s("checkpoint.store.write", "checkpoint.store.prune"), "s"),
        "checkpoint.store.bytes": (counts["store_bytes"], "bytes"),
        "obs.sinks.events": (calls("obs.sinks.on_event"), "count"),
        "obs.sinks.self_s": (self_s("obs.sinks.on_event"), "s"),
        "campaign.partition.self_s": (self_s("campaign.partition"), "s"),
        "campaign.merge.self_s": (self_s("campaign.merge"), "s"),
        "campaign.shard_s_max_over_mean": (
            ratio(max(shard_seconds, default=0.0), mean_shard), "ratio"),
        "http.client.requests": (calls(*client), "count"),
        "http.client.head_share": (
            ratio(calls("http.client.head"), calls(*client)), "ratio"),
        "http.client.error_responses": (counts["error_responses"], "count"),
        "http.client.self_s": (self_s(*client), "s"),
        "http.client.gap_p99_ms": (tracer.client_gap_p99_ms(), "ms"),
        "core.frontier.ops.calls": (calls(*frontier), "count"),
        "core.frontier.ops.self_s": (self_s(*frontier), "s"),
        "trace.op_s": (op_s, "s"),
        "trace.overhead_share": (op_s / untraced_op_s - 1.0, "ratio"),
    }
    for name in ("core.url_classifier.add_labeled", "core.url_classifier.classify",
                 "ml.features.hashed_bow", "html.render", "html.parse",
                 "webgraph.canonical.resolve_link", "webgraph.model.same_site",
                 "webgraph.load_paper_site", "core.actions.assign",
                 "core.tagpath.project", "core.hnsw.search", "core.bandit.select"):
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    return metrics
