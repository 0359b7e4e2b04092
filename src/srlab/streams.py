"""Reproducible counter-based random streams.

The generator is a random-access SplitMix64: draw number ``j`` of a stream
with 64-bit phase ``h`` is ``mix64(h + (j + 1) * GOLDEN) >> 11`` scaled to
[0, 1), where ``mix64`` is the SplitMix64 finalizer and ``GOLDEN`` is the
64-bit golden-ratio increment.  The phase is derived by hashing the seed,
and substreams re-hash the parent phase with the substream index.  Because
a draw is a pure function of (phase, counter), draws can be produced in
bulk, out of order, or for many streams at once, and the sequence is
identical on every platform.  This scheme is fixed; changing any constant
changes every stream.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_SEED_SALT = 0xD1B54A32D192ED03

_U_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_U_STREAM_SALT = np.uint64(0x8BB84B93962EACC9)
_U_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_U_MUL2 = np.uint64(0x94D049BB133111EB)
_U_1 = np.uint64(1)
_U_11 = np.uint64(11)
_U_27 = np.uint64(27)
_U_30 = np.uint64(30)
_U_31 = np.uint64(31)
_INV_2_53 = 2.0 ** -53


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on uint64 arrays (wrapping multiplies)."""
    z = (z ^ (z >> _U_30)) * _U_MUL1
    z = (z ^ (z >> _U_27)) * _U_MUL2
    return z ^ (z >> _U_31)


def draws_at(phase, counters) -> np.ndarray:
    """Uniform [0, 1) draws for absolute counter positions.

    ``phase`` and ``counters`` broadcast against each other; both are
    interpreted as uint64.  ``draws_at(s.phase, [0, 1, 2])`` equals the
    first three values of ``RandomStream.uniform`` for the same stream.
    """
    p = np.asarray(phase, dtype=np.uint64)
    c = np.asarray(counters, dtype=np.uint64)
    state = p + (c + _U_1) * _U_GOLDEN
    bits = _mix64(np.atleast_1d(state))
    u = (bits >> _U_11).astype(np.float64) * _INV_2_53
    return u.reshape(np.broadcast_shapes(p.shape, c.shape))


def substream_phases(phase, indices) -> np.ndarray:
    """Phases of the substreams ``indices`` of the stream with ``phase``.

    Element k equals ``s.substream(indices[k]).phase`` for a stream ``s``
    with that phase; indices are interpreted as uint64.
    """
    k = _mix64(np.atleast_1d(np.asarray(indices, dtype=np.uint64)) ^ _U_STREAM_SALT)
    return _mix64(np.uint64(phase) ^ k)


class RandomStream:
    """A seeded stream of uniform [0, 1) doubles with substream support.

    Substreams are independent for distinct index paths and may be created
    in any order; each stream keeps its own draw counter.
    """

    __slots__ = ("seed", "phase", "_counter")

    def __init__(self, seed: int, *, _phase: int | None = None):
        self.seed = int(seed) & _MASK64
        if _phase is None:
            _phase = int(_mix64(np.asarray([self.seed ^ _SEED_SALT], dtype=np.uint64))[0])
        self.phase = _phase
        self._counter = 0

    @property
    def counter(self) -> int:
        """Number of draws consumed so far."""
        return self._counter

    def substream(self, index: int) -> "RandomStream":
        """Derive an independent child stream for ``index``."""
        phase = substream_phases(self.phase, int(index) & _MASK64)[0]
        return RandomStream(self.seed, _phase=int(phase))

    def uniform(self, size=None):
        """Draw uniforms in [0, 1); a scalar when ``size`` is None."""
        if size is None:
            u = draws_at(self.phase, [self._counter])
            self._counter += 1
            return float(u[0])
        shape = (size,) if np.isscalar(size) else tuple(size)
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        u = draws_at(self.phase, np.arange(self._counter, self._counter + n))
        self._counter += n
        return u.reshape(shape)

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, counter={self._counter})"
