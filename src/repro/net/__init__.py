"""Network emulation substrate (the ModelNet substitute).

Link model with latency/bandwidth/loss, topology builders including an
Internet-like transit-stub generator, and a transport with TCP-like
breakable per-pair connections as required by CrystalBall's execution
steering.
"""

from .dynamics import CongestionEpisode, LinkDynamics
from .link import LOOPBACK, Link, LinkError
from .topology import (
    Topology,
    TopologyError,
    full_mesh,
    transit_stub,
)
from .transport import DEFAULT_MESSAGE_BYTES, Network, TransportError

# Membership must come last: it subclasses repro.statemachine.Service,
# and repro.statemachine imports Network/Topology from this package —
# by this point those names are bound, so the cycle resolves cleanly in
# either import direction.
from .membership import (
    VIEW_STATE_FIELDS,
    PartialViewMembership,
    ViewConfig,
)

__all__ = [
    "VIEW_STATE_FIELDS",
    "PartialViewMembership",
    "ViewConfig",
    "CongestionEpisode",
    "LinkDynamics",
    "LOOPBACK",
    "Link",
    "LinkError",
    "Topology",
    "TopologyError",
    "full_mesh",
    "transit_stub",
    "DEFAULT_MESSAGE_BYTES",
    "Network",
    "TransportError",
]
