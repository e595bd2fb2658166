"""Noise-block sampling for the batch execution engine.

Every SVT variant consumes two kinds of Laplace noise: one threshold
perturbation ``rho`` per run (per refresh for Alg. 2) and one query
perturbation ``nu_i`` per examined query.  The engine samples these as
*blocks* — a ``(trials, n)`` matrix of query noise and a ``(trials,)`` vector
of threshold noise — instead of scalar-at-a-time, which is where the batch
path gets its throughput.

Two sampling modes are supported, selected by the type of the ``rng``
argument:

* a single ``Generator`` (or seed): one vectorized ``laplace`` call for the
  whole matrix — the fastest path;
* a list of per-trial ``Generator`` objects (e.g. from
  :func:`repro.rng.derive_rngs`): each trial's row is drawn from its own
  stream.  Because a NumPy block draw consumes the bit stream exactly like
  the equivalent sequence of scalar draws, row i is then bit-identical to
  what a per-trial loop seeded the same way would have sampled — the
  property the batch ≡ streaming equivalence tests rely on.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.rng import RngLike, ensure_rng

__all__ = [
    "TrialRngs",
    "TrialStreams",
    "laplace_vector",
    "laplace_matrix",
    "gumbel_matrix",
]

#: Either one shared stream or one stream per trial.
TrialRngs = Union[RngLike, Sequence[np.random.Generator]]


def _is_rng_list(rng: TrialRngs) -> bool:
    return isinstance(rng, (list, tuple))


def laplace_vector(rng: TrialRngs, scale: float, trials: int) -> np.ndarray:
    """Sample a ``(trials,)`` vector of ``Lap(scale)`` threshold noise.

    With per-trial generators, entry i is each stream's *next* draw.
    ``scale`` may also be a ``(trials,)`` array for per-trial scales.
    """
    if _is_rng_list(rng):
        if len(rng) != trials:
            raise InvalidParameterError(
                f"got {len(rng)} per-trial generators for {trials} trials"
            )
        scales = np.broadcast_to(np.asarray(scale, dtype=float), (trials,))
        return np.array(
            [float(gen.laplace(scale=s)) for gen, s in zip(rng, scales)]
        )
    return np.atleast_1d(ensure_rng(rng).laplace(scale=scale, size=trials))


def laplace_matrix(rng: TrialRngs, scale: float, trials: int, n: int) -> np.ndarray:
    """Sample a ``(trials, n)`` matrix of ``Lap(scale)`` query noise in one block.

    With a single generator this is one vectorized call; with per-trial
    generators each row comes from its own stream (stream-compatible with a
    per-trial loop drawing ``gen.laplace(scale, size=n)``).
    """
    if n < 0 or trials < 0:
        raise InvalidParameterError("trials and n must be non-negative")
    if _is_rng_list(rng):
        if len(rng) != trials:
            raise InvalidParameterError(
                f"got {len(rng)} per-trial generators for {trials} trials"
            )
        out = np.empty((trials, n), dtype=float)
        for i, gen in enumerate(rng):
            out[i] = gen.laplace(scale=scale, size=n)
        return out
    return ensure_rng(rng).laplace(scale=scale, size=(trials, n))


class TrialStreams:
    """Per-trial generators with checkpoint/replay, for two-axis tiling.

    The tiled engine (:mod:`repro.engine.tiled`) consumes each trial's noise
    stream *tile by tile* in query order.  Because a NumPy block draw eats
    the bit stream exactly like the equivalent sequence of smaller draws,
    the concatenation of per-tile draws is bit-identical to the one
    full-width draw the dense engine makes — that is what keeps tiled ==
    untiled exact for every chunk_n.

    Two mechanisms need to *revisit* stream positions without disturbing
    them: Alg. 2's later rounds read on past each hit under a refreshed
    threshold (each tile at most once per trial), and epsilon grids re-read the
    shared unit-noise tiles once per grid point.  :meth:`checkpoint` captures
    every trial's ``bit_generator.state`` (a small dict — noise tiles are
    re-derived from their coordinates in the stream, never stored), and
    :meth:`replayer` builds a throwaway generator positioned at a saved
    state, so replays never advance the live streams.
    """

    def __init__(self, gens: Sequence[np.random.Generator]) -> None:
        self.gens: List[np.random.Generator] = list(gens)

    def __len__(self) -> int:
        return len(self.gens)

    # -- live draws (advance the streams) --------------------------------
    def rho(self, scale: float) -> np.ndarray:
        """One threshold draw per trial (``Lap(scale)``), in trial order."""
        return laplace_vector(self.gens, scale, len(self.gens))

    def laplace_tile(self, scale: float, width: int) -> np.ndarray:
        """A ``(trials, width)`` Laplace tile, one row per live stream."""
        return laplace_matrix(self.gens, scale, len(self.gens), width)

    def gumbel_tile(self, width: int) -> np.ndarray:
        """A ``(trials, width)`` standard-Gumbel tile from the live streams."""
        return gumbel_matrix(self.gens, len(self.gens), width)

    # -- checkpoint / replay ---------------------------------------------
    def checkpoint(self) -> list:
        """Every trial's current bit-generator state (cheap, copyable)."""
        return [g.bit_generator.state for g in self.gens]

    @staticmethod
    def _clone(gen: np.random.Generator, state) -> np.random.Generator:
        replay = np.random.Generator(type(gen.bit_generator)())
        replay.bit_generator.state = state
        return replay

    def replayer(self, trial: int, state) -> np.random.Generator:
        """A fresh generator for *trial* positioned at a saved *state*."""
        return self._clone(self.gens[trial], state)

    def replayers(self, states) -> "TrialStreams":
        """A whole replay bundle positioned at per-trial *states*."""
        return TrialStreams(
            [self._clone(g, s) for g, s in zip(self.gens, states)]
        )


def gumbel_matrix(rng: TrialRngs, trials: int, n: int) -> np.ndarray:
    """Sample a ``(trials, n)`` matrix of standard Gumbel noise (EM kernel).

    Standard (loc 0, scale 1) because the exponential mechanism's budget
    enters through the logits, not the noise — which is what lets one Gumbel
    block serve a whole epsilon grid.  Per-trial generators draw one row per
    stream, bit-compatible with ``gen.gumbel(size=n)`` in a per-trial loop.
    """
    if n < 0 or trials < 0:
        raise InvalidParameterError("trials and n must be non-negative")
    if _is_rng_list(rng):
        if len(rng) != trials:
            raise InvalidParameterError(
                f"got {len(rng)} per-trial generators for {trials} trials"
            )
        out = np.empty((trials, n), dtype=float)
        for i, gen in enumerate(rng):
            out[i] = gen.gumbel(size=n)
        return out
    return ensure_rng(rng).gumbel(size=(trials, n))
