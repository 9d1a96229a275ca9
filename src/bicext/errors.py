"""Exception types shared across the library.

Frozen values (pairs, shifts and the records in ``records``) raise
``dataclasses.FrozenInstanceError``, which is not a ``BicextError``; see
``frozen_instance_error``.
"""


class BicextError(Exception):
    """Base class for all library errors."""


class InstanceMismatch(BicextError):
    """Operands belong to different carrier instances."""


class OutOfDomain(BicextError):
    """A partial shift was evaluated below its domain anchor."""


class NotApplicable(BicextError):
    """The operation is undefined for this carrier (no successor, no enumeration)."""


class MalformedEquation(BicextError):
    """An equation was supplied in a shape the solver does not accept."""


class PreconditionViolated(BicextError):
    """An argument sits outside the operation's stated domain."""


class InternalError(BicextError):
    """An eagerly verified construction failed its own consistency check.

    Reaching this indicates an arithmetic bug in the library, not a caller
    mistake.
    """


class InternalDisagreement(InternalError):
    """Independent characterizations that must coincide returned different verdicts."""


class ParseError(BicextError):
    """Literal syntax error; carries the offset of the offending character."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


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
