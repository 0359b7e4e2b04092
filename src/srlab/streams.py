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

All uint64 arithmetic wraps modulo 2^64 and is done on arrays, never on
numpy scalars, which warn on overflow.  ``_mix64`` is the one SplitMix64
finalizer and ``_mix_shift`` (mix, then ``>> 11``) the one draw primitive.
Both work in place, on a fresh array or on a buffer whose contents the
caller no longer needs.  ``_uniforms`` scales the 53-bit integer draws to
doubles (``draws_at``, the swarm's ``_draw_blocks``); the studies'
``_hit_blocks`` compares them as integers, exactly as ``u >= t``.
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


def _mix64(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer, in place on the uint64 array ``z``; returns ``z``.

    ``tmp`` is uint64 scratch of z's shape (allocated when omitted).
    """
    tmp = np.empty_like(z) if tmp is None else tmp
    for shift, mul in ((_U_30, _U_MUL1), (_U_27, _U_MUL2)):
        z ^= np.right_shift(z, shift, out=tmp)
        z *= mul
    z ^= np.right_shift(z, _U_31, out=tmp)
    return z


def _mix_shift(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """53-bit integer draws ``mix64(z) >> 11`` of the uint64 counter states
    ``z``, in place; ``tmp`` is uint64 scratch of z's shape.  Returns ``z``."""
    _mix64(z, tmp)
    return np.right_shift(z, _U_11, out=z)


def _uniforms(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) doubles of the uint64 counter states ``z``, into ``out``.

    ``z`` is overwritten; ``out`` (float64, z's shape) is also the
    finalizer's scratch.  Returns ``out``.
    """
    return np.multiply(_mix_shift(z, out.view(np.uint64)), _INV_2_53, out=out)


def _draw_thresholds(t) -> np.ndarray:
    """uint64 thresholds T with ``b >= T`` exactly when ``b * 2**-53 >= t``.

    For t in [0, 2], t * 2**53 is exact, so T = ceil(t * 2**53) is the least
    53-bit draw b that passes.  The grid-point sentinel t = 2.0 becomes
    2**54, above every draw, as does NaN, which no draw passes either.
    """
    return np.fmin(np.ceil(np.multiply(t, 2.0 ** 53)), 2.0 ** 54).astype(np.uint64)


def draws_at(phase, counters) -> np.ndarray:
    """Uniform [0, 1) draws for absolute counter positions.

    ``phase`` and ``counters`` broadcast against each other; both are
    interpreted as uint64.  ``draws_at(s.phase, [0, 1, 2])`` equals the
    first three values of ``RandomStream.uniform`` for the same stream.
    """
    p = np.asarray(phase, dtype=np.uint64)
    c = np.asarray(counters, dtype=np.uint64)
    state = np.atleast_1d(np.add(p, np.multiply(np.add(c, _U_1), _U_GOLDEN)))
    u = _uniforms(state, np.empty(state.shape))
    return u if p.ndim or c.ndim else u.reshape(())


def _draw_blocks(phases: np.ndarray, width: int, out: np.ndarray, scratch: np.ndarray):
    """Yield ``draws_at(phases[:, None], k * width + arange(width))`` for k = 0, 1, ...

    Each block is written into ``out`` (float64, (phases.size, width));
    ``scratch`` is uint64 of the same shape.  The counter states advance
    by ``width * GOLDEN`` per block, which modulo 2^64 is the same state.
    """
    state = np.add(phases.reshape(-1, 1), np.multiply(np.arange(1, width + 1, dtype=np.uint64), _U_GOLDEN))
    while True:
        np.copyto(scratch, state)
        state += np.uint64(width * int(_U_GOLDEN) & _MASK64)
        yield _uniforms(scratch, out)


def _hit_blocks(phases: np.ndarray, t, width: int, block_rows: int):
    """Yield ``(rows, hit, scratch)`` for blocks of at most ``block_rows`` rows.

    ``hit[i, j]`` is ``draws_at(phases[rows][i], j) >= t[rows][i, j]`` for
    j < ``width``, with ``t`` broadcast to (phases.size, width).  Every block
    reuses the same state, scratch and hit buffers; ``scratch`` (float64,
    hit's shape) is the spent state, the consumer's until the next block.
    """
    thresholds = np.broadcast_to(_draw_thresholds(t), (phases.size, width))
    steps = np.multiply(np.arange(1, width + 1, dtype=np.uint64), _U_GOLDEN)
    shape = (min(block_rows, phases.size), width)
    z, tmp = np.empty((2, *shape), dtype=np.uint64)
    hits = np.empty(shape, dtype=bool)
    for start in range(0, phases.size, block_rows):
        rows = slice(start, start + block_rows)
        k = min(block_rows, phases.size - start)
        b = _mix_shift(np.add(phases[rows, None], steps, out=z[:k]), tmp[:k])
        yield rows, np.greater_equal(b, thresholds[rows], out=hits[:k]), b.view(np.float64)


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
        shape = () if size is None else (size,) if np.isscalar(size) else tuple(size)
        n = int(np.prod(shape, dtype=np.int64))
        u = draws_at(self.phase, np.arange(self._counter, self._counter + n)).reshape(shape)
        self._counter += n
        return float(u) if size is None else u

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, counter={self._counter})"
