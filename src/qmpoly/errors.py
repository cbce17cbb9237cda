"""Shared exception types and the one resource-guard check."""

from __future__ import annotations


class GuardExceeded(RuntimeError):
    """A computation would exceed a resource guard.

    Carries the guarded resource, the size that would be needed and the
    guard value, so callers (and the CLI) can report how far over the
    limit the request was and which knob, if any, raises it.
    """

    def __init__(self, resource: str, needed: int, guard: int):
        super().__init__(f"{resource}: {_count(needed)} needed, limit {guard}")
        self.resource = resource
        self.needed = needed
        self.guard = guard


def _count(x: int) -> str:
    # str() refuses ints past 4300 digits, such as the member count of GF(2)^240
    return str(x) if x.bit_length() <= 64 else f"at least 2^{x.bit_length() - 1}"


def check_guard(resource: str, needed: int, limit: int) -> None:
    """Raise GuardExceeded when needed exceeds limit."""
    if needed > limit:
        raise GuardExceeded(resource, needed, limit)
