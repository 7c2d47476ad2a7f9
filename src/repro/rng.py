"""Seeded randomness helpers.

All randomized components of the library accept either an integer seed or a
:class:`random.Random` instance.  These helpers normalise the two forms and
derive independent per-node generators from a single master seed so that
simulations are reproducible while still giving every node its own private
source of randomness (as the SLEEPING-CONGEST model requires).
"""

from __future__ import annotations

import random
from typing import List, Optional, Set, Tuple, Union

import numpy as np

SeedLike = Union[int, random.Random, None]

#: A master for per-node streams: a :data:`SeedLike`, or the tuple of
#: per-node seeds :func:`fix_node_seeds` derived from one.
NodeSeeds = Union[SeedLike, Tuple[int, ...]]

#: Large prime used to decorrelate derived seeds.
_DERIVE_PRIME = 2_147_483_647


def make_rng(seed: SeedLike = None) -> random.Random:
    """Return a :class:`random.Random` for *seed*.

    ``None`` produces an OS-seeded generator, an ``int`` produces a
    deterministic generator, and an existing :class:`random.Random` is
    returned unchanged (so callers can share a generator).
    """
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def derive_seed(master: NodeSeeds, index: int) -> int:
    """Derive a deterministic child seed from *master* for entity *index*.

    Used to give each simulated node an independent private generator that is
    nevertheless fully determined by the run's master seed.  A tuple master
    holds seeds already derived (see :func:`fix_node_seeds`): entity *index*
    takes its entry.
    """
    if isinstance(master, tuple):
        return master[index]
    if isinstance(master, random.Random):
        # Draw a base value once per call; deterministic given generator state.
        base = master.randrange(2**63)
    elif master is None:
        base = random.randrange(2**63)
    else:
        base = int(master)
    return (base * _DERIVE_PRIME + 0x9E3779B9 * (index + 1)) % (2**63)


def spawn_rng(master: NodeSeeds, index: int) -> random.Random:
    """Return an independent generator for entity *index* under *master*."""
    return random.Random(derive_seed(master, index))


def spawn_rngs(master: NodeSeeds, count: int) -> List[random.Random]:
    """Spawn *count* generators for indices ``0..count-1`` under *master*.

    Bit-for-bit identical to ``[spawn_rng(master, i) for i in range(count)]``
    — the batched path below only rearranges the seed arithmetic — but much
    faster for integer masters, because the derived seeds are computed as
    one numpy array operation and the generators are seeded through the C
    layer directly.  ``Random`` and ``None`` masters draw a fresh base per
    index, and tuple masters hold their seeds, so they keep the per-index
    loop.
    """
    if not isinstance(master, int):
        return [spawn_rng(master, index) for index in range(count)]
    base = int(master) * _DERIVE_PRIME
    golden = 0x9E3779B9
    if count < 1024:
        return [
            random.Random((base + golden * (index + 1)) % (2**63))
            for index in range(count)
        ]
    # (x % 2**63) == (x mod 2**64) & (2**63 - 1): uint64 wraparound
    # arithmetic followed by a mask reproduces derive_seed exactly.
    seeds = (
        np.uint64(base % 2**64)
        + np.uint64(golden) * np.arange(1, count + 1, dtype=np.uint64)
    ) & np.uint64(2**63 - 1)
    try:
        import _random
    except ImportError:  # pragma: no cover - non-CPython runtimes
        return list(map(random.Random, seeds.tolist()))
    # random.Random(s) is __new__ + the pure-Python seed() wrapper, which
    # only version-checks, calls the C seed, and resets gauss_next — doing
    # those three steps directly halves construction time at 20k+ nodes.
    # Equivalence (getstate() included) is pinned by tests/test_rng.py.
    new = random.Random.__new__
    cls = random.Random
    c_seed = _random.Random.seed
    rngs: List[random.Random] = []
    append = rngs.append
    for value in seeds.tolist():
        rng = new(cls)
        c_seed(rng, value)
        rng.gauss_next = None
        append(rng)
    return rngs


def fix_node_seeds(master: SeedLike, count: int) -> NodeSeeds:
    """Fix the per-node seeds *master* derives for indices ``0..count-1``.

    A ``Random`` or ``None`` master draws a fresh base for every derived
    seed, so spawning twice from it gives two different sets of streams.
    This draws those bases once, in index order (the draws one
    :func:`spawn_rngs` call makes), and returns the derived seeds as a
    tuple, from which :func:`spawn_rng` and :func:`spawn_rngs` spawn the
    same streams as often as needed.  Any other master is returned as is.
    """
    if isinstance(master, random.Random) or master is None:
        return tuple(derive_seed(master, index) for index in range(count))
    return master


def replay_stream(seed: int) -> np.random.Generator:
    """Return a numpy generator that replays ``random.Random(seed)``.

    CPython's ``Random`` is an MT19937 whose ``random()`` combines two
    32-bit outputs into a 53-bit double with the same formula numpy's
    ``MT19937`` uses, so moving the 624 state words (and the position)
    across makes ``replay_stream(seed).random(k)`` equal the next *k*
    ``random.Random(seed).random()`` draws bit for bit, in blocks of any
    size (pinned by ``tests/test_rng.py``).  Only ``random()`` replays:
    numpy's integer samplers use different algorithms.
    """
    words = random.Random(seed).getstate()[1]
    bit_generator = np.random.MT19937()
    bit_generator.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(words[:624], dtype=np.uint32),
                  "pos": words[624]},
    }
    return np.random.Generator(bit_generator)


def random_unique_ids(
    count: int, id_space: int, rng: Optional[random.Random] = None
) -> List[int]:
    """Sample *count* distinct integer IDs from ``[1, id_space]``.

    The paper's algorithms assume unique IDs drawn from a range ``[1, I]``
    that may be polynomially (or more) larger than the number of nodes.  IDs
    are sampled without replacement.
    """
    if count > id_space:
        raise ValueError(
            f"cannot draw {count} unique ids from a space of size {id_space}"
        )
    rng = rng or random.Random()
    if id_space <= 4 * count:
        population = list(range(1, id_space + 1))
        return rng.sample(population, count)
    chosen: Set[int] = set()
    while len(chosen) < count:
        chosen.add(rng.randint(1, id_space))
    result = list(chosen)
    rng.shuffle(result)
    return result
