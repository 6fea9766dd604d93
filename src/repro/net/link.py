"""Point-to-point link model.

A :class:`Link` captures the three performance parameters the paper's
predictive network model tracks — propagation latency, bandwidth, and
loss rate (Section 3.3.2: "modelling the network, including latency,
bandwidth, and loss information for the individual connections").
"""

from __future__ import annotations

from dataclasses import dataclass


class LinkError(Exception):
    """Raised for physically meaningless link parameters."""


@dataclass(frozen=True)
class Link:
    """Directed link parameters.

    :param latency: one-way propagation delay in seconds.
    :param bandwidth: capacity in bits per second.
    :param loss: independent per-message loss probability in [0, 1).
    """

    latency: float
    bandwidth: float = 10e6
    loss: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise LinkError(f"negative latency {self.latency!r}")
        if self.bandwidth <= 0:
            raise LinkError(f"non-positive bandwidth {self.bandwidth!r}")
        if not 0.0 <= self.loss < 1.0:
            raise LinkError(f"loss must be in [0, 1), got {self.loss!r}")

    def transmission_time(self, size_bytes: int) -> float:
        """Serialization delay for a message of ``size_bytes``."""
        return (size_bytes * 8.0) / self.bandwidth


LOOPBACK = Link(latency=0.0, bandwidth=1e12, loss=0.0)

__all__ = ["Link", "LinkError", "LOOPBACK"]
