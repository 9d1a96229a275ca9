"""Frozen records: the small immutable result types of the library.

A record class names its fields once, as ``__slots__`` and
``__match_args__`` in constructor order, and writes its own
``__init__``, which stores each field through ``object.__setattr__``
(``_store``).  ``Record`` gives it the rest of what
``@dataclass(frozen=True)`` would generate: equality by class and
fields, hashing by fields, the dataclass ``repr`` text, and a
``__setattr__``/``__delattr__`` that raise ``FrozenInstanceError`` (see
``errors.frozen_instance_error``).  Since those refuse every store,
``__reduce__`` rebuilds a record through its constructor, which copy,
deepcopy and pickle use.  Nothing is generated with ``exec``, and
nothing here imports ``dataclasses``.
"""

from .errors import frozen_instance_error

# the store each record's __init__ makes per field, bound once: the same
# object.__setattr__ call a frozen dataclass's generated __init__ makes
_store = object.__setattr__


class Record:
    """Base of the frozen records; see the module docstring."""

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
