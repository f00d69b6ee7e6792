"""Deterministic seed-tree utilities.

Every source of randomness in a simulation — per-node process RNGs, the
engine's transmission coins, adversary randomness, workload generators —
is derived from one master seed through *labelled* derivation. Labels
are arbitrary strings/ints that name the consumer (for example
``("node", 17)`` or ``("adversary", "gilbert-elliott")``). Derivation is
stable across platforms and Python versions because it uses SHA-256
rather than Python's salted ``hash``.

This matters for the paper's constructions in two ways:

* *Reproducibility*: a trial is exactly re-runnable from its seed, which
  the analysis harness relies on when re-examining outlier executions.
* *Independence*: the oblivious attackers of Section 4 must draw
  "support sequences ... with uniform and independent randomness"
  (Lemma 4.5) that are independent from the execution's own coins.
  Giving each consumer its own labelled child stream provides exactly
  that independence structure.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "derive_seed",
    "seed_deriver",
    "spawn_rng",
    "spawn_lazy_rng",
    "spawn_numpy_rng",
    "numpy_continuation",
    "fresh_seed_sequence",
    "transmission_coins",
]

_SEED_BYTES = 8


def _label_bytes(labels: Iterable[object]) -> bytes:
    """The bytes a label path contributes to a child seed's hash.

    Each label is its ``repr`` (so ``np.int64(3)`` and ``3`` are
    different labels) after a unit separator (0x1F), which keeps
    ``("ab", "c")`` and ``("a", "bc")`` apart; the whole is UTF-8.
    """
    return "".join(["\x1f" + repr(label) for label in labels]).encode("utf-8")


def derive_seed(master_seed: int, *labels: object) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a label path.

    The same ``(master_seed, labels)`` pair always yields the same child
    seed; distinct label paths yield (cryptographically) independent
    seeds.

    Parameters
    ----------
    master_seed:
        Root seed of the simulation.
    labels:
        Path of labels naming the consumer, e.g. ``("node", 3, "coins")``.
        Labels are stringified, so any ``repr``-stable object works.
    """
    hasher = hashlib.sha256(str(int(master_seed)).encode("utf-8"))
    hasher.update(_label_bytes(labels))
    return int.from_bytes(hasher.digest()[:_SEED_BYTES], "big")


def seed_deriver(master_seed: int, *prefix: object) -> Callable[..., int]:
    """:func:`derive_seed` with a fixed label prefix, hashed once.

    ``seed_deriver(s, *a)(*b) == derive_seed(s, *a, *b)`` for every
    label path: the prefix is absorbed into one SHA-256 state, and each
    call hashes only its own labels into a copy of that state. For hot
    loops that derive many sibling streams, such as one per
    ``(sender, receiver, message)`` draw of the oracle MAC.
    """
    base = hashlib.sha256(str(int(master_seed)).encode("utf-8"))
    base.update(_label_bytes(prefix))
    copy = base.copy

    def derive(*labels: object) -> int:
        hasher = copy()
        hasher.update(_label_bytes(labels))
        return int.from_bytes(hasher.digest()[:_SEED_BYTES], "big")

    return derive


def spawn_rng(master_seed: int, *labels: object) -> random.Random:
    """Return a :class:`random.Random` seeded from the labelled child seed."""
    return random.Random(derive_seed(master_seed, *labels))


class LazyRng:
    """A :class:`random.Random` stand-in that defers seeding to first use.

    Seeding a Mersenne Twister costs ~8µs and the SHA-256 label
    derivation another ~3µs — per *node*, per trial. Most processes
    never touch their private stream (decay ladders and round robin
    are coin-free outside the engine's own transmission coins), so
    ``AlgorithmSpec.build_processes`` — the
    reference engine's per-node set-up; kernel lanes build no
    processes — hands out these proxies instead. The first attribute
    access materializes
    the underlying generator with the same ``(master_seed, labels)``
    derivation, so every draw is bit-identical to an eager
    :func:`spawn_rng` stream; consumers that draw often should hold
    the bound method (``draw = ctx.rng.random``) as usual, which
    skips the proxy after the first hop.
    """

    __slots__ = ("_master_seed", "_labels", "_rng")

    def __init__(self, master_seed: int, labels: tuple) -> None:
        self._master_seed = master_seed
        self._labels = labels
        self._rng: "random.Random | None" = None

    def __getattr__(self, name: str):
        rng = self._rng
        if rng is None:
            rng = random.Random(derive_seed(self._master_seed, *self._labels))
            self._rng = rng
        return getattr(rng, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "seeded" if self._rng is not None else "unseeded"
        return f"LazyRng({self._labels!r}, {state})"


def spawn_lazy_rng(master_seed: int, *labels: object) -> LazyRng:
    """Like :func:`spawn_rng` but seeds on first draw (see :class:`LazyRng`)."""
    return LazyRng(master_seed, labels)


def spawn_numpy_rng(master_seed: int, *labels: object) -> np.random.Generator:
    """Return a NumPy :class:`~numpy.random.Generator` for vectorized draws.

    The engine uses one of these for per-round Bernoulli transmission
    coins; stochastic link processes use their own for edge fading.
    """
    return np.random.default_rng(derive_seed(master_seed, *labels))


def numpy_continuation(rng: random.Random) -> np.random.Generator:
    """A NumPy ``Generator(MT19937)`` that continues ``rng``'s stream.

    Both generators are the same Mersenne Twister, and CPython's
    ``random()`` and NumPy's MT19937 ``random()`` build each double the
    same way, from two 32-bit outputs as ``((a >> 5)·2²⁶ + (b >> 6)) /
    2⁵³``. So ``gen.random(m)`` equals ``m`` successive
    ``rng.random()`` calls from ``rng``'s current position, bit for bit.
    ``rng`` itself does not advance: the caller must own the stream and
    stop drawing from ``rng``.
    """
    _, internal, _ = rng.getstate()
    bit_generator = np.random.MT19937()
    bit_generator.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(internal[:-1], dtype=np.uint32), "pos": internal[-1]},
    }
    return np.random.Generator(bit_generator)


def transmission_coins(
    coin_rng: np.random.Generator, probabilities: "np.ndarray", certain: bool = False
) -> tuple["np.ndarray", int]:
    """One round of Bernoulli transmission coins, as a batch.

    Consumes exactly ``len(probabilities)`` uniforms from ``coin_rng`` —
    one per node, in node order — and returns ``(transmit, mask)``
    where ``transmit[u]`` is the realized coin of node ``u`` and
    ``mask`` is the same set packed as a Python int bitset (bit ``u``
    set iff node ``u`` transmits).

    This is the *single* place transmission coins are realized: the
    reference and fast engines both call it against the same
    ``("engine", "coins")`` child stream, which is what makes them
    seed-for-seed identical by construction.

    The single comparison is exhaustive because plans clamp
    ``p ∈ [0, 1]`` and the uniforms live in ``[0, 1)``: ``p = 0``
    never transmits (no uniform is below 0), ``p = 1`` always does
    (every uniform is below 1), and the open interval means no
    tie-breaking case exists.

    So a row of 0s and 1s needs no uniforms at all. A caller that
    knows this without scanning the row (a bank kernel's O(1)
    ``certain``) passes ``certain=True``: the stream then advances by
    the same ``len(probabilities)`` draws (one PCG64 jump-ahead, as a
    skipped round does) and ``transmit`` is ``probabilities >= 1``.
    The result and the stream position equal the drawing path's.
    """
    if certain:
        coin_rng.bit_generator.advance(len(probabilities))
        transmit = probabilities >= 1.0
    else:
        coins = coin_rng.random(len(probabilities))
        transmit = coins < probabilities
    mask = int.from_bytes(np.packbits(transmit, bitorder="little").tobytes(), "little")
    return transmit, mask


def fresh_seed_sequence(rng: random.Random, count: int) -> list[int]:
    """Draw ``count`` independent 63-bit seeds from ``rng``.

    Useful when an already-derived RNG must fan out into further
    independent streams (for example one seed per trial of a sweep).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return [rng.getrandbits(63) for _ in range(count)]

