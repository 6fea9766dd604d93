"""Network topologies.

A :class:`Topology` maps ordered node pairs to :class:`~repro.net.link.Link`
parameters.  Builders cover the deployments the paper's examples run on:
uniform clusters (full mesh) and a transit-stub *Internet-like*
topology matching the ModelNet setup of the case study (Section 4).

Large worlds need sparse representations: a 4,096-node mesh has ~16.7M
ordered pairs, so materializing a Link per pair is untenable.  Three
mechanisms keep big topologies cheap:

* ``default`` — one shared Link for every unlisted pair (full meshes);
* ``link_fn`` — a function ``(src, dst) -> Link | None`` consulted for
  pairs with no explicit link, with results cached on first use, so
  structured topologies (grouped transit-stub) are O(touched pairs) in
  memory instead of O(n²);
* ``node_ids`` is a ``range`` view, not a fresh list per call.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from ..sim.rng import derive_seed
from .link import LOOPBACK, Link

LinkFn = Callable[[int, int], Optional[Link]]


class TopologyError(Exception):
    """Raised for malformed topologies or unknown nodes."""


class Topology:
    """Pairwise link parameters over node ids ``0..n-1``.

    Links are directed; :meth:`set_link` installs one direction, and
    :meth:`set_symmetric` both.  Lookup order for a missing pair is
    explicit link → ``link_fn`` (cached) → ``default``.
    """

    def __init__(
        self,
        n: int,
        default: Optional[Link] = None,
        link_fn: Optional[LinkFn] = None,
    ) -> None:
        if n <= 0:
            raise TopologyError(f"topology needs at least one node, got n={n!r}")
        self.n = n
        self.default = default
        self.link_fn = link_fn
        self._links: Dict[Tuple[int, int], Link] = {}
        # Lazily-computed links (from link_fn) are cached separately so
        # pairs() keeps reporting only what was explicitly installed.
        self._computed: Dict[Tuple[int, int], Link] = {}
        self._node_ids = range(n)
        # Bumped by every set_link: the transport re-reads the links it
        # has cached when (and only when) this has moved.
        self.version = 0

    @property
    def node_ids(self) -> Sequence[int]:
        """All node ids, ascending — a cached range view, not a fresh
        list (hot at large n).  Callers must not mutate it; copy with
        ``list(...)`` if a mutable list is needed."""
        return self._node_ids

    def _check(self, node_id: int) -> None:
        if not 0 <= node_id < self.n:
            raise TopologyError(f"node {node_id!r} outside 0..{self.n - 1}")

    def set_link(self, src: int, dst: int, link: Link) -> None:
        """Install a directed link from ``src`` to ``dst``."""
        self._check(src)
        self._check(dst)
        self._links[(src, dst)] = link
        self.version += 1

    def set_symmetric(self, a: int, b: int, link: Link) -> None:
        """Install the same link parameters in both directions."""
        self.set_link(a, b, link)
        self.set_link(b, a, link)

    def link(self, src: int, dst: int) -> Link:
        """The link from ``src`` to ``dst``; loopback for ``src == dst``."""
        if not (0 <= src < self.n and 0 <= dst < self.n):
            self._check(src)
            self._check(dst)
        if src == dst:
            return LOOPBACK
        found = self._links.get((src, dst))
        if found is not None:
            return found
        if self.link_fn is not None:
            found = self._computed.get((src, dst))
            if found is None:
                found = self.link_fn(src, dst)
                if found is not None:
                    self._computed[(src, dst)] = found
            if found is not None:
                return found
        if self.default is not None:
            return self.default
        raise TopologyError(f"no link from {src} to {dst} and no default")

    def latency(self, src: int, dst: int) -> float:
        """One-way propagation latency from ``src`` to ``dst``."""
        return self.link(src, dst).latency

    def pairs(self) -> Iterable[Tuple[int, int]]:
        """All explicitly-installed directed pairs (lazily-derived links
        from ``link_fn`` are not listed here)."""
        return self._links.keys()

    def __repr__(self) -> str:
        return (
            f"Topology(n={self.n}, explicit_links={len(self._links)}, "
            f"lazy={self.link_fn is not None})"
        )


def _pair_rng(base_seed: int, i: int, j: int) -> random.Random:
    """A deterministic per-unordered-pair RNG: the same (i, j) always
    yields the same draws regardless of lookup order, which is what
    makes lazy topologies order-insensitive."""
    a, b = (i, j) if i < j else (j, i)
    return random.Random(derive_seed(base_seed, f"{a}-{b}"))


def _per_unordered_pair(derive: Callable[[int, int], Link]) -> LinkFn:
    """A ``link_fn`` that calls ``derive(lo, hi)`` once per unordered
    pair and hands both directions the same :class:`Link`.

    ``Topology`` caches per *directed* pair, so without this a symmetric
    lazy topology pays each pair's seed derivation twice.  Always
    deriving in ``lo < hi`` order also keeps latency sums exactly
    symmetric (float addition is not associative).
    """
    derived: Dict[Tuple[int, int], Link] = {}

    def link_fn(i: int, j: int) -> Link:
        key = (i, j) if i < j else (j, i)
        link = derived.get(key)
        if link is None:
            link = derived[key] = derive(*key)
        return link

    return link_fn


def full_mesh(n: int, latency: float = 0.05, bandwidth: float = 10e6, loss: float = 0.0) -> Topology:
    """Uniform full mesh: every pair shares the same link parameters."""
    return Topology(n, default=Link(latency=latency, bandwidth=bandwidth, loss=loss))


def transit_stub(
    n: Optional[int] = None,
    rng: Optional[random.Random] = None,
    n_transit: int = 4,
    transit_latency_range: Tuple[float, float] = (0.02, 0.06),
    stub_latency_range: Tuple[float, float] = (0.005, 0.02),
    access_latency_range: Tuple[float, float] = (0.001, 0.005),
    bandwidth_range: Tuple[float, float] = (5e6, 100e6),
    loss: float = 0.0,
    n_stubs: Optional[int] = None,
    stub_size: Optional[int] = None,
) -> Topology:
    """Internet-like transit-stub topology (the ModelNet setup of §4).

    Each node hangs off a stub domain; each stub attaches to one transit
    node; transit nodes form a backbone.  End-to-end latency between two
    nodes is access + stub-uplink + backbone path + stub-downlink +
    access, which yields the clustered wide-area latency distribution
    that ModelNet's INET topologies produce.

    Two construction modes:

    * ``transit_stub(n, rng)`` — one stub per node, with every pairwise
      bandwidth drawn up front.
    * ``transit_stub(rng=rng, n_stubs=S, stub_size=K)`` — the scalable
      grouped mode (``n = S·K``): node ``i`` lives in stub ``i // K``,
      structural draws are O(S + n), and links are always derived
      lazily.  Same-stub pairs pay only their access latencies (the
      stub LAN); cross-stub pairs pay the full path.
    """
    if rng is None:
        raise TopologyError("transit_stub needs an rng")
    if n_transit <= 0:
        raise TopologyError("need at least one transit node")
    if (n_stubs is None) != (stub_size is None):
        raise TopologyError("n_stubs and stub_size must be given together")

    grouped = n_stubs is not None
    if grouped:
        if n_stubs <= 0 or stub_size <= 0:
            raise TopologyError("n_stubs and stub_size must be positive")
        if n is not None and n != n_stubs * stub_size:
            raise TopologyError(
                f"n={n} conflicts with n_stubs*stub_size={n_stubs * stub_size}"
            )
        n = n_stubs * stub_size
    elif n is None:
        raise TopologyError("transit_stub needs n (or n_stubs + stub_size)")

    # Backbone: pairwise latencies among transit nodes.
    backbone: Dict[Tuple[int, int], float] = {}
    tlo, thi = transit_latency_range
    for a in range(n_transit):
        for b in range(a + 1, n_transit):
            lat = rng.uniform(tlo, thi)
            backbone[(a, b)] = lat
            backbone[(b, a)] = lat
    slo, shi = stub_latency_range
    alo, ahi = access_latency_range
    blo, bhi = bandwidth_range

    if grouped:
        # One transit attachment + uplink latency per stub, one access
        # latency per node; everything else is derived per pair.
        transit_of_stub = [rng.randrange(n_transit) for _ in range(n_stubs)]
        stub_uplink = [rng.uniform(slo, shi) for _ in range(n_stubs)]
        access = [rng.uniform(alo, ahi) for _ in range(n)]
        base_seed = rng.getrandbits(64)

        def derive(i: int, j: int) -> Link:
            si, sj = i // stub_size, j // stub_size
            if si == sj:
                lat = access[i] + access[j]
            else:
                ti, tj = transit_of_stub[si], transit_of_stub[sj]
                core = 0.0 if ti == tj else backbone[(ti, tj)]
                lat = (access[i] + stub_uplink[si] + core
                       + stub_uplink[sj] + access[j])
            return Link(latency=lat,
                        bandwidth=_pair_rng(base_seed, i, j).uniform(blo, bhi),
                        loss=loss)

        return Topology(n, link_fn=_per_unordered_pair(derive))

    transit_of = [rng.randrange(n_transit) for _ in range(n)]
    stub_uplink = [rng.uniform(slo, shi) for _ in range(n)]
    access = [rng.uniform(alo, ahi) for _ in range(n)]

    topo = Topology(n)
    for i in range(n):
        for j in range(i + 1, n):
            ti, tj = transit_of[i], transit_of[j]
            core = 0.0 if ti == tj else backbone[(ti, tj)]
            lat = access[i] + stub_uplink[i] + core + stub_uplink[j] + access[j]
            link = Link(latency=lat, bandwidth=rng.uniform(blo, bhi), loss=loss)
            topo.set_symmetric(i, j, link)
    return topo


__all__ = [
    "Topology",
    "TopologyError",
    "full_mesh",
    "transit_stub",
]
