"""Counter-based RNG streams.

Every random draw in the package comes from a generator derived from
(seed, purpose tag, counters...) via SeedSequence, never from shared
mutable generator state.  This makes dataset generation, augmentation,
and the training loop reproducible bit-for-bit regardless of execution
order, and lets a resumed run rebuild the exact stream from its
counters alone.  Augmentation and degradation decode their draws from
many streams' raw words at once (``stream_words``, ``StreamDraws``),
bit for bit what the streams' generators would draw.
"""

import numpy as np

# Purpose tags.  Values are arbitrary but frozen: changing them changes
# every downstream stream.
T_CLASS_FLAGS = 1
T_TEMPLATE = 2
T_SAMPLE = 3
T_DEGRADE = 4
T_DEGRADE_SHARED = 5
T_PERM = 6
T_FLIP = 7
T_AUG = 8
T_INIT_BACKBONE = 9
T_INIT_BANK = 10
T_PAIRS = 11
T_TRACKED = 12
T_GRADCHECK = 13


def rng_for(seed, *path):
    """Return a fresh Generator for (seed, *path).

    Same arguments always produce the same stream; distinct paths give
    statistically independent streams, except that SeedSequence zero-pads
    its 4-word pool: paths equal up to trailing zeros within the first 4
    words (seed included) are one stream, so ``rng_for(5, 4)``,
    ``rng_for(5, 4, 0)`` and ``rng_for(5, 4, 0, 0)`` collide.  Every
    value is reduced modulo 2**32; a uint32 entropy array seeds the same
    stream as the list of those values, at half the cost of coercing the
    list.
    """
    entropy = np.array([int(seed) & 0xFFFFFFFF]
                       + [int(p) & 0xFFFFFFFF for p in path], dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


# ---------------------------------------------------------------------------
# First double of many streams at once.
#
# numpy freezes SeedSequence and PCG64 (NEP 19), so the first ``random()``
# of ``rng_for(seed, tag, counter, i)`` can be restated in array arithmetic
# for a whole vector of ``i``.  SeedSequence mixes 32-bit words; the PCG64
# state is 128 bits, held here as four 32-bit limbs (low limb first) in
# uint64 arrays so a limb product fits without overflow.

_M32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def _hash_consts(init, mult, count):
    """The data-independent multiplier sequence of SeedSequence's hash."""
    out, h = [], init
    for _ in range(count):
        nxt = (h * mult) & _M32
        out.append((h, nxt))
        h = nxt
    return out


def _hashmix(value, consts):
    xor, mul = consts
    value = (value ^ np.uint32(xor)) * np.uint32(mul)
    return value ^ (value >> np.uint32(16))


def _mix(x, y):
    out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return out ^ (out >> np.uint32(16))


def _seed_state(words):
    """SeedSequence(words).generate_state(8, uint32) for 4 uint32 word
    arrays: the pool mix, then the output hash."""
    consts = iter(_hash_consts(_INIT_A, _MULT_A, 16))
    pool = [_hashmix(w, next(consts)) for w in words]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(consts)))
    return [_hashmix(pool[k % _POOL_SIZE], c)
            for k, c in enumerate(_hash_consts(_INIT_B, _MULT_B, 8))]


def _carry(cols):
    """Normalise four columns of up to 64 bits into 32-bit limbs, mod 2**128."""
    out, carry = [], np.uint64(0)
    for c in cols:
        s = c + carry
        out.append(s & np.uint64(_M32))
        carry = s >> np.uint64(32)
    return out


_PCG_MULT = [np.uint64(((2549297995355413924 << 64) + 4865540595714422341)
                       >> (32 * k) & _M32) for k in range(4)]


def _pcg_step(state, inc):
    """state * multiplier + inc, mod 2**128."""
    cols = list(inc)
    for i in range(4):
        for j in range(4 - i):
            p = state[i] * _PCG_MULT[j]
            cols[i + j] = cols[i + j] + (p & np.uint64(_M32))
            if i + j < 3:
                cols[i + j + 1] = cols[i + j + 1] + (p >> np.uint64(32))
    return _carry(cols)


def _low_words(values):
    """Values modulo 2**32 as uint32; a scalar may be any Python int."""
    if np.ndim(values) == 0:
        return np.uint32(int(values) & _M32)
    return (np.asarray(values, dtype=np.int64) & _M32).astype(np.uint32)


def stream_states(seed, tag, counter, indices):
    """The seeded PCG64 ``(state, inc)`` of ``rng_for(seed, tag, c, i)``
    for ``counter`` and ``indices`` broadcast together, in one vectorised
    pass: each four 32-bit limbs, low first, as uint64 arrays."""
    counter, idx = np.broadcast_arrays(_low_words(counter), _low_words(indices))
    words = [np.full(idx.shape, int(v) & _M32, dtype=np.uint32)
             for v in (seed, tag)]
    s = [w.astype(np.uint64) for w in _seed_state(words + [counter, idx])]
    # generate_state(4, uint64) pairs the words little-endian; PCG64 takes
    # word 0 as the high half of the initial state, word 2 of the sequence.
    init = [s[2], s[3], s[0], s[1]]
    seq = [s[6], s[7], s[4], s[5]]
    inc = [((seq[0] << np.uint64(1)) | np.uint64(1)) & np.uint64(_M32)]
    for k in range(1, 4):
        inc.append(((seq[k] << np.uint64(1)) | (seq[k - 1] >> np.uint64(31)))
                   & np.uint64(_M32))
    zero = np.zeros(idx.shape, dtype=np.uint64)
    state = _pcg_step([zero] * 4, inc)
    state = _carry([a + b for a, b in zip(state, init)])
    return _pcg_step(state, inc), inc


def stream_words(seed, tag, counter, indices, k):
    """The first ``k`` raw 64-bit outputs (``random_raw``) of
    ``rng_for(seed, tag, c, i)`` for every pair of ``counter`` and
    ``indices`` broadcast against each other, bit for bit, computed in
    one vectorised pass: uint64, their broadcast shape plus ``(k,)``."""
    state, inc = stream_states(seed, tag, counter, indices)
    out = np.empty(state[0].shape + (k,), dtype=np.uint64)
    for j in range(k):
        state = _pcg_step(state, inc)
        # XSL-RR output of the new state
        hi = (state[3] << np.uint64(32)) | state[2]
        x = hi ^ ((state[1] << np.uint64(32)) | state[0])
        rot = state[3] >> np.uint64(26)
        out[..., j] = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return out


def doubles(words):
    """``Generator.random`` of each word: its top 53 bits as a double."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def first_random(seed, tag, counter, indices):
    """``rng_for(seed, tag, c, i).random()`` for every pair of ``counter``
    and ``indices`` broadcast against each other; ``stream_words`` with
    ``k = 1``."""
    return doubles(stream_words(seed, tag, counter, indices, 1)[..., 0])


class StreamDraws:
    """numpy ``Generator`` draws of many streams at once, decoded from
    their raw words with a word cursor per stream.

    ``source(k)`` returns the first ``k`` words of every stream, shape
    (streams, k), and is asked again for twice as many whenever a stream
    runs out; only a rejected integer draw needs more than a caller's
    ``k``.  Each method makes, for every stream of the index array
    ``rows``, the draw that the ``Generator`` method of its name makes,
    bit for bit, and moves that stream's cursor as numpy moves its
    state; so calls in one stream's order continue where its last one
    stopped.  The cursors start at word ``start``, a scalar or one per
    stream, with no buffered half word.
    """

    def __init__(self, source, k, start=0):
        self._source = source
        self._words = source(k)
        n = len(self._words)
        self._pos = np.array(np.broadcast_to(start, n), dtype=np.intp)
        # the high half of each stream's last word while it is buffered
        # for the next 32-bit draw, else -1
        self._half = np.full(n, -1, dtype=np.int64)

    def _next(self, rows):
        pos = self._pos[rows]
        while pos.size and pos.max() >= self._words.shape[1]:
            self._words = self._source(2 * self._words.shape[1])
        self._pos[rows] = pos + 1
        return self._words[rows, pos]

    def _next32(self, rows):
        """The low half of a new word, or the buffered high half of the
        last one, as ``next_uint32`` of numpy's PCG64."""
        half = self._half[rows]
        fresh = half < 0
        words = self._next(rows[fresh])
        half[fresh] = (words & np.uint64(_M32)).astype(np.int64)
        buffered = np.full(len(rows), -1, dtype=np.int64)
        buffered[fresh] = (words >> np.uint64(32)).astype(np.int64)
        self._half[rows] = buffered
        return half.astype(np.uint64)

    def random(self, rows):
        return doubles(self._next(rows))

    def uniform(self, low, high, rows):
        """``uniform(low, high)``; either bound a scalar or one per row."""
        return low + (high - low) * doubles(self._next(rows))

    def integers(self, high, rows):
        """``integers(0, high)`` for int64 ``high`` in [1, 2**32], a scalar
        or one per row: Lemire's method on 32-bit draws with numpy's
        rejection, and no draw at all where ``high`` is 1."""
        high = np.broadcast_to(np.asarray(high, dtype=np.int64), np.shape(rows))
        out = np.zeros(len(rows), dtype=np.int64)
        todo = np.flatnonzero(high > 1)
        span = high[todo].astype(np.uint64)
        # products whose low half falls below this are rejected
        floor = (np.uint64(1 << 32) - span) % span
        while todo.size:
            m = self._next32(rows[todo]) * span
            ok = (m & np.uint64(_M32)) >= floor
            out[todo[ok]] = (m[ok] >> np.uint64(32)).astype(np.int64)
            todo, span, floor = todo[~ok], span[~ok], floor[~ok]
        return out


def rngs_for(seed, tag, counter, indices):
    """Yield ``rng_for(seed, tag, c, i)`` for each pair of ``counter``
    and ``indices`` broadcast together to 1-D, in turn; seeded by
    ``stream_states``.  numpy's own methods make every draw: one reused
    PCG64 is moved to each stream by assigning its state, so a yielded
    generator is valid only until the next."""
    # the high and low 64 bits of the state, then of the increment
    words = [((x[k + 1] << np.uint64(32)) | x[k]).tolist()
             for x in stream_states(seed, tag, counter, indices) for k in (2, 0)]
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for s_hi, s_lo, i_hi, i_lo in zip(*words):
        bitgen.state = {"bit_generator": "PCG64",
                        "state": {"state": s_hi << 64 | s_lo,
                                  "inc": i_hi << 64 | i_lo},
                        "has_uint32": 0, "uinteger": 0}
        yield rng
