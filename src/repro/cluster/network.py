"""The PAN/MAN network: transfer pricing over the testbed topology.

Transfers are priced analytically (path latency + serialization at the
bottleneck link).  The paper measures communication to be negligible within
the PAN and dominated by the residential MAN uplink, and explicitly notes
that short-term network variation barely moves end-to-end latency
(Sec. VI-C), so we do not model per-link queueing; the optional jitter hook
supports the randomized-trial experiments instead.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import networkx as nx

from repro.profiles.communication import LINK_PROFILES, LinkProfile
from repro.utils.errors import ConfigurationError


class Network:
    """A weighted undirected graph of devices, routers and links."""

    def __init__(self, links: Optional[Iterable[LinkProfile]] = None) -> None:
        self.graph = nx.Graph()
        self._jitter: Optional[Callable[[str, str], float]] = None
        self._version = 0
        # Bandwidth multipliers for degraded links, keyed by sorted endpoint
        # pair.  0.0 cuts the link (removed from routing entirely); absent
        # means nominal.  Kept separate from the profiles so restoring is
        # exact: the original LinkProfile is never mutated.
        self._degraded: Dict[Tuple[str, str], float] = {}
        for link in links if links is not None else LINK_PROFILES:
            self.add_link(link)
        self._path_cache: Dict[Tuple[str, str], List[str]] = {}

    def add_link(self, link: LinkProfile) -> None:
        """Install a link; endpoints are created implicitly."""
        self.graph.add_edge(link.a, link.b, profile=link, latency=link.latency_s)
        self._path_cache = {}
        self._version += 1

    def set_jitter(self, jitter: Optional[Callable[[str, str], float]]) -> None:
        """Install a multiplicative jitter hook ``(src, dst) -> factor``.

        Used by the randomized placement trials to emulate the paper's
        uncontrolled home-network conditions.
        """
        self._jitter = jitter
        self._version += 1

    @property
    def version(self) -> int:
        """Bumped on every topology or jitter change; cost-tensor caches
        built against this network (see :mod:`repro.core.placement.tensors`)
        compare versions to know when to rebuild."""
        return self._version

    @property
    def has_jitter(self) -> bool:
        """Whether a (possibly stochastic) jitter hook is installed.

        Cost tensors cache transfer prices, which would freeze a random
        jitter draw — pricing falls back to the scalar path while True.
        """
        return self._jitter is not None

    # ------------------------------------------------------------------
    # Link degradation (fault injection)
    # ------------------------------------------------------------------
    @staticmethod
    def _link_key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def has_link(self, a: str, b: str) -> bool:
        """Whether the topology has a direct link between two nodes."""
        return self.graph.has_edge(a, b)

    def degrade_link(self, a: str, b: str, factor: float) -> None:
        """Scale one link's effective bandwidth by ``factor``.

        ``factor == 0`` **cuts** the link: it disappears from routing, and
        nodes it disconnects become unreachable (``path`` raises, exactly
        like a missing topology edge).  ``factor == 1`` restores nominal.
        The link's latency is unchanged — degradation models contention on
        the pipe, not a longer route.
        """
        if not self.graph.has_edge(a, b):
            raise ConfigurationError(f"cannot degrade unknown link {a!r} <-> {b!r}")
        if not isinstance(factor, (int, float)) or not math.isfinite(factor) or factor < 0:
            raise ValueError(f"link factor must be finite and >= 0, got {factor!r}")
        key = self._link_key(a, b)
        if factor == 1.0:
            self._degraded.pop(key, None)
        else:
            self._degraded[key] = float(factor)
        self._path_cache = {}
        self._version += 1

    def restore_link(self, a: str, b: str) -> None:
        """Return one link to nominal bandwidth (undo :meth:`degrade_link`)."""
        self.degrade_link(a, b, 1.0)

    def _routing_graph(self):
        """The graph with cut links removed (views are cheap; only built
        when a cut is actually active)."""
        if not any(f == 0.0 for f in self._degraded.values()):
            return self.graph
        degraded = self._degraded

        def keep(u: str, v: str) -> bool:
            return degraded.get(Network._link_key(u, v), 1.0) > 0.0

        return nx.subgraph_view(self.graph, filter_edge=keep)

    # ------------------------------------------------------------------
    # Path queries
    # ------------------------------------------------------------------
    def path(self, src: str, dst: str) -> List[str]:
        """Lowest-latency path between two nodes (cached)."""
        key = (src, dst)
        if key not in self._path_cache:
            if src not in self.graph or dst not in self.graph:
                raise ConfigurationError(f"unknown endpoint in transfer {src!r} -> {dst!r}")
            try:
                self._path_cache[key] = nx.shortest_path(
                    self._routing_graph(), src, dst, weight="latency"
                )
            except nx.NetworkXNoPath:
                raise ConfigurationError(f"no network path {src!r} -> {dst!r}") from None
        return self._path_cache[key]

    def has_path(self, src: str, dst: str) -> bool:
        """Whether a route currently exists (cuts respected)."""
        try:
            self.path(src, dst)
        except ConfigurationError:
            return False
        return True

    def reachable_from(self, src: str) -> Set[str]:
        """All nodes routable from ``src`` under the current cuts."""
        if src not in self.graph:
            raise ConfigurationError(f"unknown node {src!r}")
        return set(nx.node_connected_component(self._routing_graph(), src))

    def path_links(self, src: str, dst: str) -> List[LinkProfile]:
        """The link profiles along the routing path."""
        nodes = self.path(src, dst)
        return [self.graph.edges[a, b]["profile"] for a, b in zip(nodes, nodes[1:])]

    # ------------------------------------------------------------------
    # Transfer pricing
    # ------------------------------------------------------------------
    def transfer_seconds(self, src: str, dst: str, payload_bytes: int) -> float:
        """Time to move ``payload_bytes`` from ``src`` to ``dst``.

        Zero when endpoints coincide (the paper only transmits "if the
        requester device and the device to encode the data are different").
        Cost = sum of per-hop latencies + serialization at the bottleneck.
        """
        if payload_bytes < 0:
            raise ValueError(f"payload_bytes must be non-negative, got {payload_bytes}")
        if src == dst:
            return 0.0
        links = self.path_links(src, dst)
        latency = sum(link.latency_s for link in links)
        if not self._degraded:
            bottleneck = min(link.bandwidth_bps for link in links)
        else:
            bottleneck = min(
                link.bandwidth_bps
                * self._degraded.get(self._link_key(link.a, link.b), 1.0)
                for link in links
            )
        seconds = latency + payload_bytes * 8 / bottleneck
        if self._jitter is not None:
            seconds *= self._jitter(src, dst)
        return seconds
