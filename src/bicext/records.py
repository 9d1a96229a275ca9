"""Frozen values: the one base of the library's immutable types.

``Record`` is the base of the eight result records and of the two
algebra values, ``pairs.BElement`` and ``shifts.PartialShift``.  A class
on it names its fields once, as ``__slots__`` and ``__match_args__`` in
constructor order, and builds its values itself: a record's
``__init__`` stores each field through ``object.__setattr__``
(``_store``), and the two values store theirs on a layout twin with the
same slots, retagged to the value class (see ``pairs``).  ``Record``
gives it the rest of what ``@dataclass(frozen=True)`` would generate:
equality by class and fields, hashing by fields, the dataclass ``repr``
text, and a ``__setattr__``/``__delattr__`` that raise
``FrozenInstanceError`` (see ``frozen_instance_error``).  Since those
refuse every store, ``__reduce__`` rebuilds a value through its
constructor, which copy, deepcopy and pickle use.  Nothing is generated
with ``exec``, and nothing here imports ``dataclasses`` until a store
is refused.
"""

# the store each record's __init__ makes per field, bound once: the same
# object.__setattr__ call a frozen dataclass's generated __init__ makes
_store = object.__setattr__


def frozen_instance_error(action: str, name: str) -> AttributeError:
    """The error a frozen value raises on an attempt to ``action`` (``"assign
    to"`` or ``"delete"``) its field ``name``.

    It is ``dataclasses.FrozenInstanceError``, an ``AttributeError``, the
    class frozen dataclasses raise, so callers catch one class for every
    frozen value.  It is imported here, on this error path only: loading
    ``dataclasses`` also loads ``inspect``, ``ast`` and ``dis``, which an
    import of bicext otherwise never needs.
    """
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(f"cannot {action} field {name!r}")


class Record:
    """Base of the frozen values; see the module docstring."""

    __slots__ = ()
    __match_args__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise frozen_instance_error("assign to", name)

    def __delattr__(self, name):
        raise frozen_instance_error("delete", name)
