"""Exception types shared across the library.

Frozen values (pairs, shifts and the result records) refuse a store with
``dataclasses.FrozenInstanceError``, which is not a ``BicextError``; see
``records.frozen_instance_error``.
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

