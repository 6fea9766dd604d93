"""Checkpoint serialization and canonical state freezing.

Services declare plain-data ``state_fields``; a checkpoint holds
those fields and is never mutated, and :func:`snapshot_value` makes the
copies where live state and a checkpoint meet (a sandbox service
copies a field when a handler first reads it, see
``Service.defer_copies``).  The model checker needs to recognize
states it has already visited, so :func:`freeze` converts any
plain-data value to a canonical hashable form and :func:`digest`
produces a stable hash.

Plain data means: ``None``, ``bool``, ``int``, ``float``, ``str``,
``bytes``, and ``dict``/``list``/``tuple``/``set``/``frozenset``/
``collections.deque`` of plain data, plus dataclass instances whose
fields are plain data (covers wire messages).  Deques round-trip as
deques, bound (``maxlen``) included, and freeze with their own tag, so
queue-shaped service state survives checkpoint/restore with its type
intact.  The frozen form does not carry ``maxlen``: a bounded and an
unbounded deque with the same elements are one state to the digest.

Both walkers dispatch on the exact ``type()`` of a value through one
table each.  A container whose elements are all scalars is handled by a
single constructor call instead of a Python-level loop, and
:func:`snapshot_value` *shares* what cannot change: a ``tuple`` or
``frozenset`` whose elements are (recursively) immutable comes back as
the same object.  The aliasing rule of a copy is therefore: every
mutable container (``dict``, ``list``, ``set``, ``deque``, dataclass
instance) is private to the copy, immutable leaves may be shared with
the original.  Subclasses of the plain types (``defaultdict``,
namedtuples, ``IntEnum``, ...) are not in the tables; an ``isinstance``
scan finds their base type and they come back normalized to it (a
namedtuple as a plain ``tuple``), never shared.

A log is hashed, not spelled out: a container of at least ``_RUN_MIN``
elements that are all exact ``int``, or all tuples (or all lists) of
one width holding only exact ``int``, freezes to one leaf ``(tag,
shape, count, sha256hex)`` over the packed run instead of one tagged
tuple per element (see ``_run_leaf``).  Which form a value takes
depends on the value alone, and the two cannot collide: a spelled-out
container is a 2-tuple whose second item is a tuple.  Within one
top-level :func:`freeze` call, a tuple of at least ``_RUN_MIN``
elements met again *by identity* reuses the form built for it the
first time (replicas share their decided batches); nothing is kept
from one call to the next.

:func:`unchanged` tells, without freezing anything, that a handler's
hand-over holds its checkpoint's state, so the model checker can keep
the checkpoint (and the digest already known for it) instead.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from array import array
from collections import deque
from itertools import chain, repeat
from operator import is_
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

_SCALAR_TYPES = (type(None), bool, int, float, str, bytes)
_SCALARS = frozenset(_SCALAR_TYPES)

# Exact container types that, holding only scalars, are copied by one call
# of the mapped constructor (``None``: immutable, shared instead) ...
_FLAT_COPY: Dict[type, Optional[Callable[[Any], Any]]] = {
    tuple: None, frozenset: None, list: list, set: set, deque: deque.copy,
}
# ... and frozen by pairing their elements with the mapped tag.
_FLAT_TAGS: Dict[type, str] = {tuple: "__tuple__", list: "__list__", deque: "__deque__"}

# Shortest int run that freezes to a hashed leaf.  Below it one hashlib
# call costs more than the tags it saves; a log passes it within a
# batch or two, and no container of a tree or gossip service reaches it.
_RUN_MIN = 32

# The frozen form of every tuple of at least ``_RUN_MIN`` elements met
# in one top-level freeze call, by ``id``, each beside the tuple itself:
# held, the tuple cannot die and hand its ``id`` to another before the
# call returns.  Made per call and dropped with it (see freeze).
_Shared = Dict[int, Tuple[tuple, Hashable]]

# Field names per dataclass type, filled when the first instance of the
# class is met (``dataclasses.fields`` rebuilds its tuple per call).
_DATACLASS_FIELDS: Dict[type, Tuple[str, ...]] = {}


class SerializationError(TypeError):
    """Raised when a value is not plain data."""


def _not_plain(value: Any) -> SerializationError:
    return SerializationError(
        f"value of type {type(value).__name__} is not plain data: {value!r}"
    )


def _field_names(value: Any) -> Optional[Tuple[str, ...]]:
    """Field names if ``value`` is a dataclass instance, else ``None``."""
    kind = type(value)
    names = _DATACLASS_FIELDS.get(kind)
    if names is None and dataclasses.is_dataclass(kind):
        names = tuple(f.name for f in dataclasses.fields(kind))
        _DATACLASS_FIELDS[kind] = names
    return names


# ----------------------------------------------------------------------
# snapshot_value
# ----------------------------------------------------------------------


def snapshot_value(value: Any) -> Any:
    """Deep-copy a plain-data value for a checkpoint.

    Every mutable container in the result is a fresh object, so neither
    side can observe a mutation of the other; immutable leaves (scalars,
    and tuples/frozensets holding only immutable values) are shared.
    Dataclass instances are copied by reconstructing them.
    """
    copier = _COPIERS.get(type(value), _snapshot_other)
    return value if copier is None else copier(value)


def _copied_elements(values: Any) -> Any:
    """Copies of the elements of ``values``, in iteration order.

    Returns ``values`` itself when every element is immutable all the
    way down, so the caller can share them (or the whole container).
    """
    kinds = set(map(type, values))
    if kinds <= _SCALARS:
        return values
    if len(kinds) == 1:
        # One level of homogeneous nesting over scalars (a log of
        # ``(origin, seq)`` commands, a table of ``[sent, acked]``
        # pairs) is still checked and copied without a Python-level loop.
        (kind,) = kinds
        if kind in _FLAT_COPY and set(map(type, chain.from_iterable(values))) <= _SCALARS:
            copy = _FLAT_COPY[kind]
            return values if copy is None else map(copy, values)
    return [snapshot_value(v) for v in values]


def _copy_list(value: list) -> list:
    return list(_copied_elements(value))


def _copy_deque(value: deque) -> deque:
    return deque(_copied_elements(value), value.maxlen)


def _copy_set(value: set) -> set:
    return set(_copied_elements(value))


def _copy_immutable(value: Any) -> Any:
    """``tuple``/``frozenset``: shared unless something inside it had to
    be copied."""
    copied = _copied_elements(value)
    if copied is value:
        return value
    copied = tuple(copied)
    return value if all(map(is_, copied, value)) else type(value)(copied)


def _copy_dict(value: dict) -> dict:
    held = value.values()
    keys, values = _copied_elements(value), _copied_elements(held)
    if keys is value and values is held:
        return dict(value)
    return dict(zip(keys, values))


# Base containers in the order a subclass instance is tested against
# them, each with the walker that rebuilds it as the plain base type.
_SUBCLASS_COPIERS: Tuple[Tuple[type, Callable[[Any], Any]], ...] = (
    (dict, _copy_dict),
    (list, _copy_list),
    (deque, _copy_deque),
    (tuple, lambda value: tuple(_copied_elements(value))),
    (set, _copy_set),
    (frozenset, lambda value: frozenset(_copied_elements(value))),
)


def _snapshot_other(value: Any) -> Any:
    """Values whose exact type is not in the table: subclasses of the
    plain types (normalized to the base type) and dataclasses."""
    names = _DATACLASS_FIELDS.get(type(value))
    if names is None:
        if isinstance(value, _SCALAR_TYPES):
            return value
        for base, copier in _SUBCLASS_COPIERS:
            if isinstance(value, base):
                return copier(value)
        names = _field_names(value)
        if names is None:
            raise _not_plain(value)
    return type(value)(**{name: snapshot_value(getattr(value, name)) for name in names})


_COPIERS: Dict[type, Optional[Callable[[Any], Any]]] = dict.fromkeys(_SCALAR_TYPES)
_COPIERS.update({
    dict: _copy_dict,
    list: _copy_list,
    deque: _copy_deque,
    tuple: _copy_immutable,
    set: _copy_set,
    frozenset: _copy_immutable,
})


# ----------------------------------------------------------------------
# freeze
# ----------------------------------------------------------------------


def freeze(value: Any) -> Hashable:
    """Convert a plain-data value to a canonical hashable form.

    The encoding is injective per type (containers are tagged) so that
    e.g. ``[1, 2]`` and ``(1, 2)`` freeze differently.  ``value`` is
    only read, never mutated or retained past the call.
    """
    freezer = _FREEZERS.get(type(value), _freeze_other)
    return value if freezer is None else freezer(value, {})


def _freeze(value: Any, shared: _Shared) -> Hashable:
    """:func:`freeze` inside a call, sharing that call's ``shared``."""
    freezer = _FREEZERS.get(type(value), _freeze_other)
    return value if freezer is None else freezer(value, shared)


def _frozen_elements(values: Any, shared: _Shared) -> Any:
    """The frozen elements of ``values``, in iteration order."""
    kinds = set(map(type, values))
    if kinds <= _SCALARS:
        return values
    if len(kinds) == 1:
        # The same one level of nesting as in _copied_elements: tagging
        # flat sequences needs no Python-level loop either.
        (kind,) = kinds
        tag = _FLAT_TAGS.get(kind)
        if tag is not None and set(map(type, chain.from_iterable(values))) <= _SCALARS:
            return zip(repeat(tag), map(tuple, values))
    return [_freeze(v, shared) for v in values]


def _run_leaf(tag: str, values: Any, ordered: bool = True) -> Optional[Hashable]:
    """The leaf ``(tag, shape, count, sha256hex)`` if ``values`` is an
    int run, else ``None``.

    ``shape`` is ``"q"`` when the elements are all exact ``int`` and
    ``"t<w>"`` / ``"l<w>"`` when they are all tuples / all lists of one
    width ``w > 0`` holding only exact ``int``; the hash is the full
    SHA-256 of the run packed row-major as little-endian int64, in
    iteration order or, unless ``ordered``, in natural sorted order.
    ``bool``, ``float`` and ``IntEnum`` cells are told from the int they
    equal by their ``repr`` alone, and an int outside 64 bits does not
    pack: all of those stay spelled out.
    """
    kinds = set(map(type, values))
    if kinds == {int}:
        shape, cells = "q", values
    else:
        # A namedtuple row is a tuple row, as everywhere else in freeze:
        # snapshot_value hands it back as one and no digest may notice.
        if all(issubclass(kind, tuple) for kind in kinds):
            shape = "t"
        elif all(issubclass(kind, list) for kind in kinds):
            shape = "l"
        else:
            return None
        widths = set(map(len, values))
        # Flattened once, for the check and for the packing; ragged
        # rows leave no cells and fail with the empty ones.
        cells = list(chain.from_iterable(values)) if len(widths) == 1 else ()
        if set(map(type, cells)) != {int}:
            return None
        shape += str(widths.pop())
    if not ordered:
        values = sorted(values)
        cells = values if shape == "q" else chain.from_iterable(values)
    try:
        packed = array("q", cells)
    except OverflowError:
        return None
    if sys.byteorder == "big":
        packed.byteswap()
    return (tag, shape, len(values), hashlib.sha256(packed).hexdigest())


def _freeze_list(value: list, shared: _Shared) -> Hashable:
    leaf = len(value) >= _RUN_MIN and _run_leaf("__list__", value)
    return leaf or ("__list__", tuple(_frozen_elements(value, shared)))


def _freeze_deque(value: deque, shared: _Shared) -> Hashable:
    leaf = len(value) >= _RUN_MIN and _run_leaf("__deque__", value)
    return leaf or ("__deque__", tuple(_frozen_elements(value, shared)))


def _freeze_tuple(value: tuple, shared: _Shared) -> Hashable:
    if len(value) < _RUN_MIN:
        return ("__tuple__", tuple(_frozen_elements(value, shared)))
    # Replicas hold the same decided batches: a long tuple met again in
    # this call is frozen once.
    held = shared.get(id(value))
    if held is None:
        frozen = _run_leaf("__tuple__", value) or (
            "__tuple__", tuple(_frozen_elements(value, shared)))
        held = shared[id(value)] = (value, frozen)
    return held[1]


def _freeze_set(value: Any, shared: _Shared) -> Hashable:
    leaf = len(value) >= _RUN_MIN and _run_leaf("__set__", value, ordered=False)
    return leaf or ("__set__", tuple(sorted(_frozen_elements(value, shared), key=repr)))


def _key_repr(item: tuple) -> str:
    return repr(item[0])


def _freeze_dict(value: dict, shared: _Shared) -> Hashable:
    leaf = len(value) >= _RUN_MIN and _run_leaf("__dict__", value, ordered=False)
    if leaf:
        # Keys that are a run are hashed; the held values follow as one
        # tuple in the keys' natural order.
        return (*leaf, _freeze(tuple(map(value.__getitem__, sorted(value))), shared))
    items = zip(_frozen_elements(value, shared), _frozen_elements(value.values(), shared))
    return ("__dict__", tuple(sorted(items, key=_key_repr)))


# In the order a subclass instance is tested against them; the frozen
# form carries a tag, not the type, so the same walkers serve both.
_CONTAINER_FREEZERS: Dict[type, Callable[[Any, _Shared], Hashable]] = {
    dict: _freeze_dict,
    list: _freeze_list,
    deque: _freeze_deque,
    tuple: _freeze_tuple,
    set: _freeze_set,
    frozenset: _freeze_set,
}


def _freeze_other(value: Any, shared: _Shared) -> Hashable:
    """Counterpart of :func:`_snapshot_other` for :func:`freeze`."""
    names = _DATACLASS_FIELDS.get(type(value))
    if names is None:
        if isinstance(value, _SCALAR_TYPES):
            return value
        for base, freezer in _CONTAINER_FREEZERS.items():
            if isinstance(value, base):
                return freezer(value, shared)
        names = _field_names(value)
        if names is None:
            raise _not_plain(value)
    fields = tuple([(name, _freeze(getattr(value, name), shared)) for name in names])
    return ("__dc__", type(value).__name__, fields)


_FREEZERS: Dict[type, Optional[Callable[[Any, _Shared], Hashable]]] = {
    **dict.fromkeys(_SCALAR_TYPES), **_CONTAINER_FREEZERS,
}


# ----------------------------------------------------------------------
# Digests and checkpoints
# ----------------------------------------------------------------------


def encode_frozen(frozen_value: Hashable) -> bytes:
    """Canonical byte encoding of an already-frozen value.

    This is the single encoder behind every digest in the system
    (service checkpoints, world states, event keys): digesting anything
    means ``sha256(encode_frozen(freeze(value)))``.
    """
    return repr(frozen_value).encode("utf-8")


def digest_of_frozen(frozen_value: Hashable) -> str:
    """Stable hex digest of an already-frozen value."""
    return hashlib.sha256(encode_frozen(frozen_value)).hexdigest()[:16]


def digest(value: Any) -> str:
    """Stable hex digest of a plain-data value (via :func:`freeze`)."""
    return digest_of_frozen(freeze(value))


# Exact types whose equal values freeze alike, so a field may come back
# as a new but equal object of one (``1 == 1.0 == True`` and
# ``0.0 == -0.0`` all freeze differently, so no other scalar may) ...
_EQUAL_SCALARS = frozenset((int, str, bytes))
# ... and the containers a field may come back as a copy of: the same
# exact type holding the same element objects in the same order.
_FLAT_CONTAINERS = frozenset((list, tuple, set, frozenset, deque, dict))


def unchanged(checkpoint: Dict[str, Any], original: Dict[str, Any]) -> bool:
    """Whether ``checkpoint`` provably holds the state ``original`` does.

    Conservative and one level deep: each field must be the original's
    object, an equal exact ``int``/``str``/``bytes``, or a flat container
    of the original's exact type (a deque with its ``maxlen``) whose
    elements — keys and values of a dict — are the original's objects in
    its order.  A copy :func:`snapshot_value` made of a flat container
    passes; equal floats, bools, nested containers and subclasses count
    as changed.  When it returns True, ``digest(checkpoint) ==
    digest(original)``.
    """
    if checkpoint.keys() != original.keys():
        return False
    for name, value in checkpoint.items():
        before = original[name]
        if value is before:
            continue
        kind = type(value)
        if kind is not type(before):
            return False
        if kind in _EQUAL_SCALARS:
            if value != before:
                return False
        elif kind not in _FLAT_CONTAINERS:
            return False
        elif len(value) != len(before) or not all(map(is_, value, before)):
            return False
        elif kind is dict and not all(map(is_, value.values(), before.values())):
            return False
        elif kind is deque and value.maxlen != before.maxlen:
            return False
    return True


def checkpoint_state(obj: Any, field_names) -> Dict[str, Any]:
    """Snapshot the named attributes of ``obj`` into a checkpoint dict."""
    return {name: snapshot_value(getattr(obj, name)) for name in field_names}


def restore_state(obj: Any, checkpoint: Dict[str, Any]) -> None:
    """Install a checkpoint dict onto ``obj`` (copying every mutable
    container, so ``obj`` holds no reference into ``checkpoint``)."""
    for name, value in checkpoint.items():
        setattr(obj, name, snapshot_value(value))


__all__ = [
    "SerializationError",
    "snapshot_value",
    "freeze",
    "encode_frozen",
    "digest_of_frozen",
    "digest",
    "unchanged",
    "checkpoint_state",
    "restore_state",
]
