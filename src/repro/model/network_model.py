"""The predictive network model.

Section 3.3: distributed systems "collect some information about the
network and, often implicitly, build a network model to predict network
performance ... we argue that the network and the system model should
be exported and kept in the runtime".  :class:`NetworkModel` is that
exported model: per-pair EWMA estimates of latency and bandwidth, fed
by passive observation of checkpoint stamps (latency) and
bootstrappable from ground truth (latency and bandwidth) for oracle
experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

EWMA_ALPHA = 0.3
# What the model predicts for a link it has no sample of.
DEFAULT_LATENCY = 0.05
DEFAULT_BANDWIDTH = 10e6


@dataclass
class LinkEstimate:
    """EWMA estimate of one directed link's performance.

    Each field initializes from its *own* first sample (a latency-only
    observation must not make a later bandwidth sample average against
    zero), so per-field sample counts are tracked separately.
    """

    latency: float = 0.0
    bandwidth: float = 0.0
    latency_samples: int = 0
    bandwidth_samples: int = 0

    def observe(
        self,
        latency: Optional[float] = None,
        bandwidth: Optional[float] = None,
        alpha: float = EWMA_ALPHA,
    ) -> None:
        """Fold one measurement into the estimate."""
        if latency is not None:
            if self.latency_samples == 0:
                self.latency = latency
            else:
                self.latency += alpha * (latency - self.latency)
            self.latency_samples += 1
        if bandwidth is not None:
            if self.bandwidth_samples == 0:
                self.bandwidth = bandwidth
            else:
                self.bandwidth += alpha * (bandwidth - self.bandwidth)
            self.bandwidth_samples += 1


class NetworkModel:
    """Per-pair network performance estimates kept in the runtime."""

    def __init__(self) -> None:
        self._links: Dict[Tuple[int, int], LinkEstimate] = {}

    # ------------------------------------------------------------------
    # Feeding the model
    # ------------------------------------------------------------------

    def _estimate(self, src: int, dst: int) -> LinkEstimate:
        est = self._links.get((src, dst))
        if est is None:
            est = LinkEstimate()
            self._links[(src, dst)] = est
        return est

    def observe_latency(self, src: int, dst: int, latency: float) -> None:
        """Record one one-way latency measurement."""
        self._estimate(src, dst).observe(latency=latency)

    def bootstrap_from_topology(self, topology) -> None:
        """Load ground truth from a topology (oracle / iPlane mode).

        Experiments that are not about model convergence use this to
        start the predictive model from accurate measurements, the way
        iPlane would provide them to every application on the node.
        """
        for i in topology.node_ids:
            for j in topology.node_ids:
                if i == j:
                    continue
                link = topology.link(i, j)
                self._estimate(i, j).observe(latency=link.latency, bandwidth=link.bandwidth)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def latency(self, src: int, dst: int) -> float:
        """Estimated one-way latency (default when unknown)."""
        if src == dst:
            return 0.0
        est = self._links.get((src, dst))
        if est is None or est.latency_samples == 0:
            return DEFAULT_LATENCY
        return est.latency

    def bandwidth(self, src: int, dst: int) -> float:
        """Estimated bandwidth in bits/s (default when unknown)."""
        est = self._links.get((src, dst))
        if est is None or est.bandwidth_samples == 0 or est.bandwidth <= 0:
            return DEFAULT_BANDWIDTH
        return est.bandwidth

    def rtt(self, a: int, b: int) -> float:
        """Estimated round-trip time between ``a`` and ``b``."""
        return self.latency(a, b) + self.latency(b, a)

    def transfer_time(self, src: int, dst: int, size_bytes: int) -> float:
        """Predicted one-way delivery time for ``size_bytes``."""
        return self.latency(src, dst) + (size_bytes * 8.0) / self.bandwidth(src, dst)

    def __repr__(self) -> str:
        return f"NetworkModel(pairs={len(self._links)})"


__all__ = ["NetworkModel", "LinkEstimate", "EWMA_ALPHA"]
