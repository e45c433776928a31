"""Special-function kernel: physicists' Hermite polynomials, the Airy
function Ai with its derivative, and the negative zeros of Ai.

`airy` evaluates Ai and Ai' over an array of abscissas, and no other code
does.  On (-20, 9) it takes a Taylor step of |h| <= 1/4 in 21 terms from the
nearest anchor on the grid of halves; from 9 up and from -20 down it sums the
large-|z| expansions (DLMF 9.7.5-6 and 9.7.9-10), the negative one in at most
12 terms, the positive one in up to 40 near 9.  Each element's value depends
on its z alone, never on the rest of its batch, so `airy_ai`, the scalar form
for Newton steps and the public API, returns the same bits as any array call.
A one-element call runs on every branch in Python floats, which round as
numpy's do; the series sums add a batch's terms row by row (`_partial_sums`).
One LRU memo of whole batches, 20,000 elements in all with each batch charged
18 more for its overhead, sits in front of the kernel and `airy_zero`
memoizes its zeros; the Taylor and series tables are built once, on first
use.  Nothing else is kept between calls.
"""

from __future__ import annotations

import bisect
import functools
import math
import numbers
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AiryValue",
    "ConvergenceError",
    "airy",
    "airy_ai",
    "airy_zero",
    "hermite",
    "hermite_prime",
]

# Residuals of the double-rounded constants 2*pi and pi/4 against the true
# values; needed to keep the oscillatory phase accurate at large |z|.
_TWO_PI_RESIDUAL = 2.4492935982947064e-16
_PI_OVER_4_RESIDUAL = 3.061616997868383e-17

# Regime switch points.  For z >= 9 and z <= -20 the asymptotic expansions
# are used; between them a Taylor expansion of the ODE w'' = z*w about the
# nearest anchor on the grid of halves (`_anchor_columns`).
_POSITIVE_CUT = 9.0
# The table could reach further down (to -32 in 23 terms); ROADMAP item 1's
# memory entry says why it stops at -20.
_NEGATIVE_CUT = -20.0
# Anchors below this take Ai and Ai' from the negative expansion, which is
# accurate from here down; those above, from a step down from their neighbour.
_SEEDED_BELOW = -12.0
# The anchors' positions in half units, lowest first.
_HALVES = range(int(2.0 * _NEGATIVE_CUT), int(2.0 * _POSITIVE_CUT) + 1)
# Columns kept per anchor: the fewest whose first dropped term at |h| = 1/4
# lies below 2^-60 of the envelope at every anchor (with 20 the anchor -20 misses).
_TAYLOR_TERMS = 21

_NEWTON_MAX_ITER = 50


class ConvergenceError(RuntimeError):
    """Iteration failed to converge."""


@dataclass(frozen=True)
class AiryValue:
    ai: float
    ai_prime: float
    branch: str  # "power-series" | "negative-z-asymptotic" | "positive-z-asymptotic"


def hermite(n: int, y: float) -> float:
    """Physicists' Hermite polynomial H_n(y) by the three-term recurrence."""
    if not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"Hermite degree must be an integer >= 0, got {n!r}")
    if not math.isfinite(y):
        raise ValueError(f"Hermite argument must be finite, got {y}")
    if n == 0:
        return 1.0
    h_prev, h = 1.0, 2.0 * y
    for k in range(1, n):
        h_prev, h = h, 2.0 * y * h - 2.0 * k * h_prev
    return h


def hermite_prime(n: int, y: float) -> float:
    """Derivative H'_n(y) = 2n H_{n-1}(y), with H'_0 = 0."""
    if not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"Hermite degree must be an integer >= 0, got {n!r}")
    if not math.isfinite(y):
        raise ValueError(f"Hermite argument must be finite, got {y}")
    if n == 0:
        return 0.0
    return 2.0 * n * hermite(n - 1, y)


# --- Airy machinery -------------------------------------------------------

_AIRY_LIMIT = -1e12  # the phase's error grows with |z|: past here it costs over 1e-13 of the envelope
_BELOW_LIMIT = f"below the limit {_AIRY_LIMIT:g}, past which Ai is not computed accurately"
# past this index a_n ~ -(3 pi (4n - 1)/8)^(2/3) (DLMF 9.9.6) lies below the limit
_ZERO_INDEX_LIMIT = math.ceil(2.0 * (-_AIRY_LIMIT) ** 1.5 / (3.0 * math.pi) + 0.25)
# exp(-zeta) underflows from z ~ 107 on, so Ai and Ai' are zeros in doubles;
# the positive branch evaluates every larger z at this cap, where nothing overflows.
_POSITIVE_CAP = 1e4
_SERIES_TERMS = 60
_TERM_FLOOR = 2.0 ** -60  # a series stops at its first term below this
# Elements per kernel pass: bounds its (terms x elements) Taylor and series
# arrays.  Of 512 to 8192, 4096 ran the bouncer's passes at n = 200..4000 fastest.
_CHUNK = 4096
_MEMO_SIZE = 20_000
_ENTRY_COST = 18  # the elements a memo entry is charged besides its own: ~430 B of key, arrays and links


def _asymptotic_coefficients(count: int) -> tuple[list[float], list[float]]:
    # Coefficients u_k (for Ai) and v_k (for Ai') of the large-|z| expansions.
    us = [1.0]
    for k in range(1, count):
        us.append(us[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / ((2 * k - 1) * 216.0 * k))
    vs = [1.0] + [us[k] * (6 * k + 1) / (1.0 - 6.0 * k) for k in range(1, count)]
    return us, vs


@functools.cache
def _series_tables(as_lists: bool = False) -> tuple:
    """The signed (u_k, v_k) rows of the expansions in powers of 1/zeta and
    the table of term counts, built once, as arrays or (``as_lists``) as
    nested lists of Python floats and ints for one-element calls:

    - ``alternating[k]`` = (-1)^k (u_k, v_k), for z >= 9;
    - ``paired[k]`` = (-1)^(k//2) (u_k, v_k), for z <= -20 and the Taylor
      anchors below -12: even k make the sums P (Ai) and R (Ai'), odd k the
      sums Q and S;
    - ``counts[i]``, the term count for zeta from ``breaks[i-1]`` up to
      ``breaks[i]``: a series stops at its first term k that is larger than
      term k - 1 (where zeta < u_k / u_(k-1)) or below 2^-60 (where zeta >=
      (2^60 u_k)^(1/k)).  From zeta = 18, the positive seam, to about 19.4
      the terms turn to growing before they get that small; from zeta =
      27.7, at -12, they get below it in at most 19 terms, and from 59.6,
      the negative seam, in at most 12.
    """
    if as_lists:
        return tuple(table.tolist() for table in _series_tables())
    us, vs = _asymptotic_coefficients(_SERIES_TERMS)
    rows = np.array([us, vs]).T
    k = np.arange(_SERIES_TERMS)[:, None]
    grows = np.array(us[1:]) / np.array(us[:-1])  # increasing in k
    small = np.minimum.accumulate([(u / _TERM_FLOOR) ** (1.0 / k) for k, u in enumerate(us[1:], start=1)])
    breaks = np.sort(np.concatenate((grows, small)))
    counts = np.minimum(
        np.searchsorted(grows, breaks, side="right") + 1,  # the first k that grows
        np.searchsorted(-small, -breaks, side="left") + 1,  # the first k below 2^-60
    )
    return rows * (-1.0) ** k, rows * (-1.0) ** (k // 2), breaks, np.concatenate(([1], counts))


def _on(ufunc, x, *more):
    # numpy's ufunc; at a Python float, a Python float.  A one-element call on
    # an asymptotic branch runs in Python floats, whose + - * / round as
    # numpy's do, at a fraction of the cost of numpy scalars.
    return float(ufunc(x, *more)) if isinstance(x, float) else ufunc(x, *more)


def _term_count(zeta):
    # The terms k < count of a series in 1/zeta; a function of zeta alone.
    one = isinstance(zeta, float)
    _, _, breaks, counts = _series_tables(one)
    return counts[bisect.bisect_right(breaks, zeta) if one else np.searchsorted(breaks, zeta, side="right")]


def _partial_sums(inv_zeta, count, group: int):
    # Per element, sum_k rows[k] * inv_zeta^k over its own k < group * count,
    # as `group` interleaved series (term k goes to series k % group), with
    # the alternating rows for group 1 and the paired ones for group 2.  Terms
    # are added in order of k and the sum is read at the element's own count,
    # so no element depends on the counts of its batch.  Returns the sums with
    # shape (group, 2) + shape(inv_zeta); for a float, as `group` pairs.
    #
    # Powers and sums run along k, the first axis, one ufunc call a row, so
    # they add in order of k.  np.add.reduce would not: it sums pairwise,
    # and gives only the total, not the sum at each element's own count.
    rows = _series_tables(isinstance(inv_zeta, float))[group - 1]
    if isinstance(inv_zeta, float):  # the same operations in the same order, in Python floats
        sums, power = [], 1.0
        for k in range(group * count):
            u, v = rows[k]
            last = sums[-group] if k >= group else None
            sums.append((last[0] + u * power, last[1] + v * power) if last else (u * power, v * power))
            power *= inv_zeta
        return sums[-group:]
    terms, size = group * int(count.max()), len(inv_zeta)
    powers = np.full((terms, size), inv_zeta)
    powers[0] = 1.0
    for before, row in zip(powers[1:], powers[2:]):
        np.multiply(before, inv_zeta, out=row)
    blocks = (terms // group, group)
    sums = np.empty(blocks + (2, size))  # C-contiguous, so its rows are views, never copies
    np.multiply(rows[:terms].reshape(blocks + (2, 1)), powers.reshape(blocks + (1, size)), out=sums)
    for before, row in zip(sums, sums[1:]):
        np.add(before, row, out=row)
    return np.moveaxis(sums[count - 1, ..., np.arange(size)], 0, -1)


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a):
    c = 134217729.0 * a  # Veltkamp split at 2^27 + 1
    high = c - (c - a)
    return high, a - high


def _two_prod(a, b, a_parts=None, b_parts=None):
    # a * b as an exact sum p + e; a caller that has split a or b passes its parts
    p = a * b
    ah, al = _split(a) if a_parts is None else a_parts
    bh, bl = _split(b) if b_parts is None else b_parts
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _zeta_double_double(x):
    # zeta = (2/3) x^(3/2) as an unevaluated double-double sum, plus sqrt(x);
    # the phase of the oscillatory expansion needs ~1 ulp of zeta, which plain
    # doubles cannot deliver once zeta >> 1.
    s = _on(np.sqrt, x)
    s_parts = _split(s)
    ss, se = _two_prod(s, s, s_parts, s_parts)
    s_corr = ((x - ss) - se) / (2.0 * s)
    p, pe = _two_prod(x, s, b_parts=s_parts)
    pe = pe + x * s_corr
    num_h, num_l = _two_sum(2.0 * p, 2.0 * pe)
    q = num_h / 3.0
    qq, qe = _two_prod(3.0, q)
    return q, (((num_h - qq) - qe) + num_l) / 3.0, s


def _negative(z):
    # DLMF 9.7.9-10: Ai and Ai' for z <= -12 (the branch z <= -20 and the
    # anchors below -12) from the phase zeta + pi/4.  Its multiple n of 2*pi
    # comes off as in math.remainder: n * 2*pi is a double-double and
    # zeta - n * 2*pi is exact in doubles.  Past |z| ~ 1e11 zeta / 2*pi no
    # longer rounds to n, and the reduced phase, a few turns long, keeps a
    # rounding error of up to ~1e-14.  The series go in pairs of terms, an
    # even one for P and R and an odd one for Q and S.
    x = -z
    zeta, zeta_lo, root = _zeta_double_double(x)
    turns = _on(np.rint, zeta / (2.0 * math.pi))
    whole, whole_lo = _two_prod(turns, 2.0 * math.pi)
    phase = ((zeta - whole) - whole_lo) + zeta_lo - turns * _TWO_PI_RESIDUAL + math.pi / 4.0 + _PI_OVER_4_RESIDUAL
    sn, cs = _on(np.sin, phase), _on(np.cos, phase)
    (p, r), (q, s) = _partial_sums(1.0 / zeta, (_term_count(zeta) + 1) // 2, 2)
    quarter = _on(np.sqrt, root)
    return (sn * p - cs * q) / (math.sqrt(math.pi) * quarter), -(cs * r + sn * s) * quarter / math.sqrt(math.pi)


def _positive(z):
    # DLMF 9.7.5-6: Ai and Ai' for z >= 9.
    # exp(-zeta) takes zeta's rounding as its relative error, so zeta is a
    # double-double here too.
    zeta, zeta_lo, root = _zeta_double_double(_on(np.minimum, z, _POSITIVE_CAP))
    su, sv = _partial_sums(1.0 / zeta, _term_count(zeta), 1)[0]
    damp = _on(np.exp, -zeta) * (1.0 - zeta_lo)
    pref = 2.0 * math.sqrt(math.pi)
    quarter = _on(np.sqrt, root)
    return damp * su / (pref * quarter), -damp * quarter * sv / pref


def _taylor_coefficients(z0: float, ai: float, aip: float) -> list[float]:
    # The 34 recentred Taylor coefficients of w'' = z*w:
    # c_{k+2} = (z0*c_k + c_{k-1}) / ((k+1)(k+2))
    c = [ai, aip]
    for k in range(32):
        c_km1 = c[k - 1] if k >= 1 else 0.0
        c.append((z0 * c[k] + c_km1) / ((k + 1) * (k + 2)))
    return c


def _horner(columns, h):
    # The Taylor polynomial and its derivative at the float offset h, where
    # columns[k] holds the floats (c_k, (k+1) c_(k+1)).
    value, deriv = columns[-1]
    for c, d in columns[-2::-1]:
        value = value * h + c
        deriv = deriv * h + d
    return value, deriv


@functools.cache
def _anchor_columns() -> list[list[tuple[float, float]]]:
    """Per anchor -20, -19.5, ..., 9, the first _TAYLOR_TERMS columns
    (c_k, (k+1) c_(k+1)) of Ai's Taylor polynomial about it, built once.
    The anchor 9 starts from the asymptotic value there, and each anchor
    down to -12 from a half-unit step down, on all 34 terms, from the anchor
    above: toward smaller z Ai is the growing solution on the positive axis
    and neither solution grows on the negative axis, so the propagation is
    stable.  Each anchor below -12 starts from the negative expansion at it,
    which is closer there than the steps down from 9 (58 of them to -20)."""
    ai, aip = _positive(_POSITIVE_CUT)
    anchors = []
    for half in reversed(_HALVES):
        z0 = 0.5 * half
        if z0 < _SEEDED_BELOW:
            ai, aip = _negative(z0)
        c = _taylor_coefficients(z0, ai, aip)
        columns = [(c[k], (k + 1) * c[k + 1]) for k in range(33)] + [(c[33], 0.0)]
        anchors.append(columns[:_TAYLOR_TERMS])
        ai, aip = _horner(columns, -0.5)
    return anchors[::-1]


@functools.cache
def _taylor_table() -> np.ndarray:
    # The same columns as one (_TAYLOR_TERMS, 2, anchors) array, anchor last, for batches.
    return np.ascontiguousarray(np.array(_anchor_columns()).transpose(1, 2, 0))


def _taylor(z):
    # One Taylor step of |h| <= 1/4 from the nearest anchor, for -20 < z < 9;
    # a z halfway between two takes the integer one (round and np.rint round
    # half to even).
    if isinstance(z, float):  # one point: Python floats round every step as numpy does, at a fraction of the cost
        half = round(2.0 * z)
        return _horner(_anchor_columns()[half - _HALVES.start], z - 0.5 * half)
    half = np.rint(2.0 * z)
    h, columns = z - 0.5 * half, _taylor_table()[:, :, half.astype(int) - _HALVES.start]
    acc = columns[-1].copy()  # (value, derivative) rows: _horner's operations in half its ufunc calls
    for column in columns[-2::-1]:
        acc *= h
        acc += column
    return acc


def _branch(z: float) -> str:
    if z >= _POSITIVE_CUT:
        return "positive-z-asymptotic"
    if z <= _NEGATIVE_CUT:
        return "negative-z-asymptotic"
    return "power-series"


_BRANCHES = {"power-series": _taylor, "negative-z-asymptotic": _negative, "positive-z-asymptotic": _positive}


def _evaluate(z: np.ndarray) -> np.ndarray:
    # The rows Ai and Ai' of each element of the non-empty 1-D z: a mixed batch
    # branch by branch, one branch in kernel passes of at most _CHUNK elements.
    if len(z) == 1:
        v = z.item()
        if not _AIRY_LIMIT <= v < math.inf:  # false for a nan too
            raise _argument_error(v)
        return np.array(_BRANCHES[_branch(v)](v))[:, None]
    lo, hi = z.min(), z.max()
    if not (lo >= _AIRY_LIMIT and hi < math.inf):
        raise _argument_error(next(v for v in z.tolist() if not _AIRY_LIMIT <= v < math.inf))
    if _branch(lo) == _branch(hi):
        kernel = _BRANCHES[_branch(lo)]
        return np.concatenate([kernel(z[i:i + _CHUNK]) for i in range(0, len(z), _CHUNK)], axis=1)
    values = np.empty((2, len(z)))
    for inside in (z <= _NEGATIVE_CUT, z >= _POSITIVE_CUT, (z > _NEGATIVE_CUT) & (z < _POSITIVE_CUT)):
        if inside.any():
            values[:, inside] = _evaluate(z[inside])
    return values


def _argument_error(z: float) -> ValueError:
    if not math.isfinite(z):
        return ValueError(f"Airy argument must be finite, got {z}")
    return ValueError(f"Airy argument {z} is {_BELOW_LIMIT}")


# The memo: the bytes of a 1-D batch -> its read-only (Ai, Ai') rows, least
# recently used first; bounded, and counted, in elements, each batch charged
# _ENTRY_COST more, so one-element batches cannot fill memory the bound does not see.
_MEMO: OrderedDict[bytes, tuple[np.ndarray, np.ndarray]] = OrderedDict()
_memo_counts = [0, 0, 0]  # hits, misses, held elements
_MEMO_LOCK = threading.Lock()  # held by each memo access, a kernel pass on a miss included
_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def airy(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ai(z) and Ai'(z) for every element of the 1-D array z, as two read-only
    arrays.  Raises ``ValueError`` for a z that is not 1-D, a non-finite
    element or one below -1e12.  A batch seen recently comes whole from the
    memo, as a level's passes make the same batches on every visit."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError(f"Airy argument must be a 1-D array, got shape {z.shape}")
    key = z.tobytes()
    with _MEMO_LOCK:
        if key in _MEMO:
            _MEMO.move_to_end(key)
            _memo_counts[0] += len(z)
            return _MEMO[key]
        values = _evaluate(z) if len(z) else np.empty((2, 0))
        values.setflags(write=False)
        rows = values[0], values[1]
        _memo_counts[1] += len(z)
        if len(z) + _ENTRY_COST <= _MEMO_SIZE:  # a larger batch is returned but not kept
            _memo_counts[2] += len(z) + _ENTRY_COST
            while _memo_counts[2] > _MEMO_SIZE:
                _memo_counts[2] -= _MEMO.popitem(last=False)[1][0].size + _ENTRY_COST
            _MEMO[key] = rows
        return rows


def airy_ai(z: float) -> AiryValue:
    """Ai(z) and Ai'(z) with the branch that computed them: one element of
    `airy`, through the same memo.  ``airy_ai.cache_clear()`` empties that
    memo and ``airy_ai.cache_info()`` reports its hits and misses in elements and its size
    in charged elements."""
    ai, aip = airy(np.array([z], dtype=float))
    return AiryValue(ai.item(), aip.item(), _branch(z))


def _cache_clear() -> None:
    with _MEMO_LOCK:
        _MEMO.clear()
        _memo_counts[:] = [0, 0, 0]


airy_ai.cache_clear = _cache_clear
airy_ai.cache_info = lambda: _CacheInfo(_memo_counts[0], _memo_counts[1], _MEMO_SIZE, _memo_counts[2])


def asymptotic_zero(k):
    """a_k ~ -T(3 pi (4k - 1)/8) (DLMF 9.9.6), the k-th negative zero of Ai, for an integer k >= 1 or an integer
    array, with T(t) ~ t^(2/3) (1 + 5/48 t^-2 - 5/36 t^-4) (DLMF 9.9.18): 6e-4 off at k = 1, closer beyond."""
    t = 3.0 * math.pi * (4.0 * k - 1.0) / 8.0
    t2 = t * t  # not t ** 4: a float's ** raises OverflowError from k ~ 2.5e76, far past the Airy limit
    return -t ** (2.0 / 3.0) * (1.0 + 5.0 / 48.0 / t2 - 5.0 / 36.0 / (t2 * t2))


@functools.lru_cache(maxsize=4096, typed=True)  # typed: 3.0 must not hit the entry of 3
def airy_zero(n: int) -> float:
    """The n-th negative zero a_n of Ai, found by Newton iteration seeded at
    its asymptotic estimate `asymptotic_zero(n)`."""
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"Airy-zero index must be an integer >= 1, got {n!r}")
    if n > _ZERO_INDEX_LIMIT:  # refused before float(n) can overflow
        raise ValueError(f"Airy zero {n} lies {_BELOW_LIMIT}")
    a = asymptotic_zero(int(n))  # a numpy integer would make a a numpy float
    for _ in range(_NEWTON_MAX_ITER):
        v = airy_ai(a)
        step = v.ai / v.ai_prime
        a -= step
        # From |a| = 512 on one ulp of a exceeds 1e-13, so even the float
        # nearest the zero can take a larger step; two ulps also end it.
        if (abs(v.ai) < 1e-13 and abs(step) < 1e-13) or abs(step) <= 2.0 * math.ulp(a):
            return a
    raise ConvergenceError(f"Newton iteration for Airy zero {n} did not converge in {_NEWTON_MAX_ITER} iterations; "
                           f"last iterate {a!r}")
