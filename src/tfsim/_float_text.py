"""The float formatter behind every table of :mod:`tfsim._text`.

Floats print exactly as Python's ``%`` operator prints them with ``%g`` at
precision 17: 17 significant digits, fixed notation for decimal exponents
-4..16, trailing zeros and a bare point dropped. :func:`float_cells` computes
that text with NumPy: with the decimal exponent e10 = floor(log10|x|), the
digits are the integer nearest y = |x| 10^(16 - e10). y comes from a Dekker
product of x against a double-double power of ten, so its error is below
1e-14 and the nearest integer is certain unless y is within 1e-6 of a half.
Values the fast path cannot certify (ties, a misjudged e10, |x| outside
[1e-280, 1e280], inf, nan) get Python's own ``%``; zeros print as ``0`` and
``-0`` directly. See Loitsch, "Printing floating-point numbers quickly and
accurately with integers" (PLDI 2010) for the certify-or-fall-back design.

A text is a cell of FLOAT_WIDTH bytes gathered from its value's source row by
the template of its (sign, notation class, trailing zeros): the (sign, class)
one with the NUL pad byte in place of the dropped zeros and of a bare point.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from ._text import text_cells

#: Widest float text, as in '-2.2250738585072014e-308'.
FLOAT_WIDTH = 24

_MIN_FAST, _MAX_FAST = 1e-280, 1e280  # keeps 10^(16 - e10) and Dekker's split finite
_TIE_MARGIN = 1e-6  # y is within 1e-14, so a fraction this far from 1/2 rounds surely
_Y_LOW, _Y_HIGH = 1e16 + 4, 1e17 - 32  # fl(y) beyond these could round to 16 or 18 digits

# Byte positions in each value's 28-byte source row: d0 '.' '0' '-', digits
# d1..d16, |e10| as four digits, then 'e' '+' '-' and a NUL pad byte.
_DOT, _ZERO, _MINUS, _EXP = 1, 2, 3, 20
_E, _PLUS, _EMINUS, _PAD = 24, 25, 26, 27
_DIGITS = [0, *range(4, 20)]  # d0..d16
_LE_U4 = np.dtype("<u4")

# Notation classes: 0..20 fixed notation with e10 = class - 4; 21..24 exponent
# notation, by the sign of e10 and whether it has three digits; 25 zero.
_FIXED, _ZERO_CLASS, _CLASSES = 21, 25, 26


def _template(negative, cls):
    """Source positions of the text of one (sign, notation class), all 17 digits shown."""
    seq = [_MINUS] if negative else []
    if cls == _ZERO_CLASS:
        return seq + [_ZERO]
    if cls < _FIXED:
        e10 = cls - 4
        if e10 < 0:
            return seq + [_ZERO, _DOT] + [_ZERO] * (-e10 - 1) + _DIGITS
        return seq + _DIGITS[: e10 + 1] + [_DOT] * (e10 < 16) + _DIGITS[e10 + 1 :]
    exp_negative, three = divmod(cls - _FIXED, 2)
    seq += [_DIGITS[0], _DOT, *_DIGITS[1:], _E, _EMINUS if exp_negative else _PLUS]
    return seq + list(range(_EXP + 2 - three, _EXP + 4))


@cache
def _layout():
    """Four-digit ASCII groups, their trailing zeros, and the templates of every
    (sign, notation class, trailing zeros) key."""
    g = np.arange(10_000)
    chars = [g // 1000, g // 100 % 10, g // 10 % 10, g % 10]
    groups = sum(((c + 48) << (8 * i) for i, c in enumerate(chars)), np.zeros_like(g))
    trailing = sum((g % 10**j == 0).astype(np.int32) for j in range(1, 4)) + (g == 0)
    seqs = [_template(neg, cls) for neg in (0, 1) for cls in range(_CLASSES)]
    base = np.array([seq + [_PAD] * (FLOAT_WIDTH - len(seq)) for seq in seqs], np.intp)
    # Fraction digit d_p (source position p + 3) is one of tz trailing zeros when
    # p >= 17 - tz; the point goes with the fraction's first digit; rank 0 shows.
    fraction = np.cumsum(base == _DOT, axis=1) > 0
    rank = np.where(fraction & (base > _MINUS) & (base < _EXP), base - 3, 0)
    dots = np.nonzero(base == _DOT)
    rank[dots] = rank[dots[0], dots[1] + 1]
    templates = np.where(rank[:, None] >= np.arange(17, 0, -1)[:, None], _PAD, base[:, None])
    return groups.astype(_LE_U4), trailing.astype(np.int32), templates.reshape(-1, FLOAT_WIDTH)


def _split(a):
    """Dekker's split of a into two 26-bit halves."""
    s = a * 134217729.0
    high = s - (s - a)
    return high, a - high


@cache
def _pow10(k):
    """10^k as a double-double (hi, lo) with the Dekker halves of hi, exact to 2^-106."""
    if k >= 0:
        exact = 10**k
        hi = float(exact)
        lo = float(exact - int(hi))
    else:
        m = 10**-k
        hi = 1 / m  # int / int is correctly rounded
        num, den = hi.as_integer_ratio()
        lo = (den - num * m) / (den * m)
    return (hi, lo, *_split(np.float64(hi)))


def _decimal(v):
    """Per float64 value: whether the fast path certifies it, the integer N nearest
    |v| 10^(16 - e10), which carries its 17 significant digits, and e10."""
    x = np.abs(v)
    fast = (x >= _MIN_FAST) & (x <= _MAX_FAST)
    x = np.where(fast, x, 1.0)
    e10 = np.floor(np.log10(x)).astype(np.int32)
    k = 16 - e10
    k_min = int(k.min(initial=16))
    table = np.array([_pow10(j) for j in range(k_min, int(k.max(initial=16)) + 1)]).T
    hi, lo, hi_h, hi_l = (np.take(row, k - k_min) for row in table)
    # y = x * 10^k = p + tail, with p = fl(x * hi) and its rounding error exact.
    p = x * hi
    x_h, x_l = _split(x)
    error = x_l * hi_l - (((p - x_h * hi_h) - x_l * hi_h) - x_h * hi_l)
    tail = error + x * lo
    step = np.rint(tail)
    fast &= np.abs(np.abs(tail - step) - 0.5) > _TIE_MARGIN
    fast &= (p >= _Y_LOW) & (p <= _Y_HIGH)
    n = p.astype(np.int64)
    n += step.astype(np.int64)
    return fast, n, e10


def float_cells(values):
    """NUL-padded bytes of the 17-digit text of each float64 value."""
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    groups, trailing, templates = _layout()
    fast, n, e10 = _decimal(v)
    zero = v == 0.0
    n[~fast] = 10**16
    top, bottom = (half.astype(np.int32) for half in np.divmod(n, 10**8))
    top, g2 = np.divmod(top, 10**4)
    d0, g1 = np.divmod(top, 10**4)
    g3, g4 = np.divmod(bottom, 10**4)
    tz = np.take(trailing, g4) + (g4 == 0) * (
        np.take(trailing, g3)
        + (g3 == 0) * (np.take(trailing, g2) + (g2 == 0) * np.take(trailing, g1))
    )
    source = np.empty((v.size, 7), dtype=_LE_U4)
    source[:, 0] = d0 + (48 + (ord(".") << 8) + (ord("0") << 16) + (ord("-") << 24))
    for col, g in enumerate((g1, g2, g3, g4, np.abs(e10)), start=1):
        source[:, col] = np.take(groups, g)
    source[:, 6] = ord("e") + (ord("+") << 8) + (ord("-") << 16)
    cls = np.where(
        (e10 >= -4) & (e10 <= 16), e10 + 4, _FIXED + 2 * (e10 < 0) + (np.abs(e10) >= 100)
    )
    cls[zero] = _ZERO_CLASS
    tz[zero] = 0
    key = (np.signbit(v) * _CLASSES + cls) * 17 + tz
    index = np.take(templates, key, axis=0)
    index += np.arange(0, 28 * v.size, 28)[:, None]
    chars = np.take(source.view(np.uint8).reshape(-1), index)
    slow = np.flatnonzero(~(fast | zero))
    if slow.size:
        slow_chars = text_cells(["%.17g" % x for x in v[slow].tolist()])
        chars[slow] = 0
        chars[slow, : slow_chars.shape[1]] = slow_chars
    return chars
