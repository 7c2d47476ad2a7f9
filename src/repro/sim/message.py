"""Messages and CONGEST size accounting.

The SLEEPING-CONGEST model allows ``O(log n)`` bits per edge per round.  The
simulator represents message payloads as ordinary Python objects (tuples of
small integers and short strings in all shipped protocols) and *accounts*
for their size with :func:`estimate_bits`, a conservative structural estimate
that charges integers their bit length and strings 8 bits per character.

The runner can be configured with a bit budget per message; exceeding it
raises :class:`repro.errors.MessageTooLargeError`.  The default harness
configuration sets the budget to ``c * log2(N)`` for the run's polynomial ID
bound ``N`` so that CONGEST violations surface as test failures instead of
silently producing an algorithm that needs LOCAL-sized messages.
"""

from __future__ import annotations

from typing import Any


def estimate_bits(payload: Any) -> int:
    """Estimate the number of bits needed to encode *payload*.

    The estimate is intentionally simple and conservative:

    * ``None`` and booleans cost 1 bit,
    * integers cost ``max(1, bit_length) + 1`` bits (sign),
    * floats cost 64 bits,
    * strings cost 8 bits per character,
    * tuples/lists/sets cost the sum of their items plus 2 bits of framing
      per item,
    * dicts cost keys + values plus framing.

    Exact ``int``, ``str`` and ``tuple`` payloads (and the ints inside
    tuples) take a fast path with the same formula; every other type,
    ``bool`` and ``int`` subclasses included, takes the general one.
    """
    kind = type(payload)
    if kind is int:
        return (payload.bit_length() or 1) + 1
    if kind is str:
        return 8 * (len(payload) or 1)
    if kind is tuple:
        total = 0
        for item in payload:
            total += ((item.bit_length() or 1) + 3 if type(item) is int
                      else estimate_bits(item) + 2)
        return total
    if payload is None or isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, payload.bit_length()) + 1
    if isinstance(payload, float):
        return 64
    if isinstance(payload, str):
        return 8 * max(1, len(payload))
    if isinstance(payload, (tuple, list, set, frozenset)):
        return sum(estimate_bits(item) + 2 for item in payload)
    if isinstance(payload, dict):
        return sum(
            estimate_bits(k) + estimate_bits(v) + 2 for k, v in payload.items()
        )
    if isinstance(payload, bytes):
        return 8 * max(1, len(payload))
    raise TypeError(
        f"unsupported message payload type {type(payload).__name__}; "
        "protocols should send tuples of ints / short strings"
    )
