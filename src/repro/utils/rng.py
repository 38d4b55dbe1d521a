"""Random-number-generator plumbing.

All stochastic components in this library accept a ``random_state``
argument and normalize it through :func:`check_random_state`, so that
every experiment is reproducible from a single integer seed.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Generator",
    "check_random_state",
    "child_seed",
    "derive_seed",
    "freeze_seed",
    "spawn_rngs",
    "spawn_seeds",
]

#: The generator type every helper here returns, re-exported so other
#: modules can annotate and isinstance-check without spelling
#: ``np.random`` themselves — this module is the one sanctioned home of
#: that surface (enforced by ``repro lint`` rule D102).
Generator = np.random.Generator


def check_random_state(random_state=None) -> np.random.Generator:
    """Normalize ``random_state`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    random_state:
        ``None`` (fresh nondeterministic generator), an ``int`` seed, an
        existing :class:`numpy.random.Generator` (returned unchanged), or
        a :class:`numpy.random.SeedSequence`.

    Returns
    -------
    numpy.random.Generator

    Raises
    ------
    TypeError
        If ``random_state`` is of an unsupported type.
    """
    if random_state is None:
        return np.random.default_rng()
    if isinstance(random_state, np.random.Generator):
        return random_state
    if isinstance(random_state, (int, np.integer)):
        if random_state < 0:
            raise ValueError(f"seed must be non-negative, got {random_state}")
        return np.random.default_rng(int(random_state))
    if isinstance(random_state, np.random.SeedSequence):
        return np.random.default_rng(random_state)
    raise TypeError(
        "random_state must be None, an int, a numpy Generator or a "
        f"SeedSequence, got {type(random_state).__name__}"
    )


def spawn_seeds(random_state, n: int) -> list[int]:
    """Derive ``n`` independent integer child seeds from one seed.

    The picklable sibling of :func:`spawn_rngs`: plain non-negative
    ``int`` seeds travel across process boundaries and can be handed to
    any ``random_state`` argument in this library, so a parallel
    executor can give every shard its own deterministic stream without
    ever sharing mutable generator state between workers.  Child seeds
    depend only on ``random_state`` and the shard index — never on the
    backend, worker count, or completion order — which is what makes
    serial, threaded, and multiprocess runs reproduce each other.

    ``random_state`` may be an ``int`` (fully deterministic children),
    a :class:`~numpy.random.SeedSequence` (read, never advanced), a
    live Generator (consumes one draw), or ``None`` (fresh entropy).
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if isinstance(random_state, np.random.SeedSequence):
        base = random_state
    elif isinstance(random_state, (int, np.integer)):
        if random_state < 0:
            raise ValueError(f"seed must be non-negative, got {random_state}")
        base = np.random.SeedSequence(int(random_state))
    elif isinstance(random_state, np.random.Generator):
        base = np.random.SeedSequence(
            int(random_state.integers(0, 2**63 - 1))
        )
    elif random_state is None:
        base = np.random.SeedSequence()
    else:
        raise TypeError(
            "random_state must be None, an int, a numpy Generator or a "
            f"SeedSequence, got {type(random_state).__name__}"
        )
    # child i of a fresh base, built directly: spawn() would advance it
    key, pool = base.spawn_key, base.pool_size
    return [_int_seed(np.random.SeedSequence(
        base.entropy, spawn_key=key + (i,), pool_size=pool
    )) for i in range(n)]


def freeze_seed(random_state) -> int:
    """An ``int`` seed as a plain ``int``; anything else drawn once into
    ``spawn_seeds(random_state, 1)[0]``, so seeds derived from it later
    survive ``reset()`` and snapshot/restore."""
    if isinstance(random_state, (int, np.integer)):
        return int(random_state)
    return spawn_seeds(random_state, 1)[0]


def child_seed(seed: int, index: int) -> int:
    """``spawn_seeds(seed, n)[index]`` for every ``n > index``, in O(1).

    ``SeedSequence(seed).spawn(n)`` gives child ``i`` the spawn key
    ``(i,)`` under the parent's entropy, so child ``index`` is built
    directly instead of spawning the ``index`` children before it.
    ``seed`` is a non-negative ``int``, as :func:`spawn_seeds` takes it.
    """
    seed, index = _seed_path("child_seed", (seed, index))
    return _int_seed(np.random.SeedSequence(seed, spawn_key=(index,)))


def _seed_path(name: str, values) -> list[int]:
    """``values`` as plain ints, each checked to be a non-negative
    integer (``name`` is the calling function, for the message)."""
    parts = []
    for value in values:
        if not isinstance(value, (int, np.integer)):
            raise TypeError(f"{name} takes integers, got {type(value).__name__}")
        if value < 0:
            raise ValueError(f"seed path must be non-negative, got {value}")
        parts.append(int(value))
    return parts


def _int_seed(sequence: np.random.SeedSequence) -> int:
    """The non-negative ``int`` seed a :class:`~numpy.random.SeedSequence`
    stands for: its first 64-bit word, shifted into 63 bits."""
    return int(sequence.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))


def derive_seed(root, *path) -> int:
    """One integer child seed at an addressed point under ``root``.

    Where :func:`spawn_seeds` derives a *vector* of children (shard
    ``i`` of ``n``), this derives a single child at an arbitrary
    integer coordinate path — ``derive_seed(seed, site, k, index)`` is
    a pure function of its arguments, independent of how many other
    coordinates are ever visited.  That is the primitive the chaos
    injector needs: the decision "does fault ``k`` fire at task
    ``index``?" must not shift when another fault is added or another
    task runs first.
    """
    parts = _seed_path("derive_seed", (root, *path))
    return _int_seed(np.random.SeedSequence(entropy=parts))


def spawn_rngs(random_state, n: int) -> list[np.random.Generator]:
    """Create ``n`` statistically independent child generators.

    Useful for giving each member of an ensemble (trees in a forest,
    repetitions of a permutation test) its own stream while remaining
    reproducible from one seed.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    rng = check_random_state(random_state)
    seeds = rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]
