"""Reproducible counter-based random streams.

The generator is a random-access SplitMix64: draw number ``j`` of a stream
with 64-bit phase ``h`` is ``mix64(h + (j + 1) * GOLDEN) >> 11`` scaled to
[0, 1), where ``mix64`` is the SplitMix64 finalizer and ``GOLDEN`` is the
64-bit golden-ratio increment.  The phase is derived by hashing the seed,
an integer in [0, 2^64), and substreams re-hash the parent phase with the
substream index.  Because a draw is a pure function of (phase, counter),
draws can be produced in bulk, out of order, or for many streams at once,
and the sequence is identical on every platform.  This scheme is fixed;
changing any constant changes every stream.

All uint64 arithmetic wraps modulo 2^64 and is done on arrays, never on
numpy scalars, which warn on overflow.  Every consumer takes its draws by
(phase, counter): ``_steps`` is the one place ``(j + 1) * GOLDEN`` is
written, and ``_mix_shift`` turns the states ``phase + _steps(j)`` into the
53-bit integer draws in place.  ``draws_at`` scales them through their
int64 view (a draw is below 2^63, so the faster signed conversion gives the
same double); the swarm scales them itself, and the studies compare them
with integer thresholds, exactly as ``u >= t``.
"""

from __future__ import annotations

import numpy as np

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
    """SplitMix64 finalizer of the uint64 array ``z``, in place; ``tmp`` is scratch (allocated when omitted)."""
    tmp = np.empty_like(z) if tmp is None else tmp
    for shift, mul in ((_U_30, _U_MUL1), (_U_27, _U_MUL2)):
        np.multiply(np.bitwise_xor(z, np.right_shift(z, shift, out=tmp), out=z), mul, out=z)
    z ^= np.right_shift(z, _U_31, out=tmp)
    return z


def _mix_shift(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The 53-bit integer draws ``mix64(z) >> 11`` of the uint64 states ``z``, in place; ``tmp`` is scratch."""
    return np.right_shift(_mix64(z, tmp), _U_11, out=z)


def _steps(counters) -> np.ndarray:
    """``(counter + 1) * GOLDEN`` as uint64: draw ``counter``'s state is its phase plus this."""
    return np.multiply(np.add(np.asarray(counters, dtype=np.uint64), _U_1), _U_GOLDEN)


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
    z = np.add(np.asarray(phase, dtype=np.uint64), _steps(counters))  # a uint64 scalar when both are 0-d
    state = np.atleast_1d(z)
    u = np.empty(state.shape)  # the finalizer's scratch, then the draws
    np.multiply(_mix_shift(state, u.view(np.uint64)).view(np.int64), _INV_2_53, out=u)
    return u if np.ndim(z) else u.reshape(())


def _integer(value, name: str, low: int = 0) -> int:
    """``value`` as an int, if it is a Python or numpy integer, not a bool, in [low, 2^64)."""
    if type(value) is bool or not isinstance(value, (int, np.integer)) or not low <= value < 1 << 64:
        raise ValueError(f"{name} must be an integer in [{low}, 2**64), got {value!r}")
    return int(value)


def substream_phases(phase, indices) -> np.ndarray:
    """Phases of the substreams ``indices`` of the stream with ``phase``.

    Element k equals ``s.substream(indices[k]).phase`` for a stream ``s``
    with that phase; indices are interpreted as uint64.
    """
    k = _mix64(np.atleast_1d(np.asarray(indices, dtype=np.uint64)) ^ _U_STREAM_SALT)
    return _mix64(np.uint64(phase) ^ k)


class RandomStream:
    """A seeded stream of uniform [0, 1) doubles with substream support.

    Seeds and substream indices are integers in [0, 2^64), not booleans.
    Substreams are independent for distinct index paths and may be created
    in any order; each stream keeps its own draw counter.
    """

    __slots__ = ("seed", "phase", "_counter")

    def __init__(self, seed: int, *, _phase: int | None = None):
        self.seed = _integer(seed, "seed")
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
        phase = substream_phases(self.phase, _integer(index, "substream index"))[0]
        return RandomStream(self.seed, _phase=int(phase))

    def uniform(self, size=None):
        """Draw uniforms in [0, 1); a scalar when ``size`` is None."""
        shape = () if size is None else (size,) if np.isscalar(size) else tuple(size)
        if min(shape, default=0) < 0:
            raise ValueError(f"negative dimensions are not allowed, got size {size!r}")
        n = int(np.prod(shape, dtype=np.int64))
        u = draws_at(self.phase, np.arange(self._counter, self._counter + n)).reshape(shape)
        self._counter += n
        return float(u) if size is None else u

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, counter={self._counter})"
