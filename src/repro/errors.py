"""Exception hierarchy for the ``repro`` library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library-level failures without
accidentally swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """Raised when an algorithm or simulator is configured inconsistently."""


class UnknownFamilyError(ConfigurationError, KeyError):
    """Raised when a graph family name is not in the generator registry.

    Derives from :class:`ConfigurationError` so the CLI renders it as a
    clean ``error: ...`` line, and from :class:`KeyError` for compatibility
    with callers that catch the historical mapping miss.  ``__str__`` is
    overridden because ``KeyError`` would ``repr()`` the message, wrapping
    it in quotes and mangling the formatting in CLI output.
    """

    def __str__(self) -> str:
        return str(self.args[0]) if self.args else ""


class WorkerCrashError(ReproError):
    """Raised when an execution-backend worker fails irrecoverably.

    The socket backend reconnects to crashed workers and requeues their
    in-flight tasks; this error surfaces only when a task keeps killing
    its workers (crash loop), every execution slot is lost, or a task
    raised inside a worker (the traceback text is included)."""


class SimulationError(ReproError):
    """Raised when the simulator detects an illegal protocol action."""


class MessageTooLargeError(SimulationError):
    """Raised when a protocol sends a message exceeding the CONGEST budget.

    The SLEEPING-CONGEST model only allows ``O(log n)``-bit messages per edge
    per round.  The simulator enforces a concrete per-run byte budget and
    raises this error when a message exceeds it (unless enforcement is
    disabled).
    """


class ProtocolViolationError(SimulationError):
    """Raised when a protocol violates the round structure.

    Examples: scheduling a wake-up in the past, or sending on a port that
    does not exist on the node.
    """


class VerificationError(ReproError):
    """Raised when an algorithm output fails verification (e.g. not an MIS)."""
