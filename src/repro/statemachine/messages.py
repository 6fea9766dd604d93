"""Wire message base class.

Application messages are frozen-ish dataclasses deriving from
:class:`Message`.  They must contain only plain data (see
``serialization``) so they can live inside checkpoints and model-checker
world states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from .serialization import _field_names, freeze


@dataclass
class Message:
    """Base class for all wire messages.

    Subclasses are ordinary dataclasses; the class name doubles as the
    message type on the wire.
    """

    @classmethod
    def msg_type(cls) -> str:
        """Wire type name of this message class."""
        return cls.__name__

    def wire_size(self) -> int:
        """Approximate on-the-wire size in bytes.

        A fixed header plus a crude per-field estimate; applications
        carrying bulk payloads (content distribution blocks) override
        this with their real block size.
        """
        size = 64
        for name in _field_names(self):
            value = getattr(self, name)
            if isinstance(value, (bytes, str)):
                size += len(value)
            elif isinstance(value, (list, tuple, set, frozenset, dict)):
                size += 8 * max(1, len(value))
            else:
                size += 8
        return size

    def frozen(self) -> Hashable:
        """Canonical hashable form (for model-checker state hashing)."""
        return freeze(self)


__all__ = ["Message"]
