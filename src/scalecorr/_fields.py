"""The fields of plain record lines, parsed from a block's bytes with array
operations: tickers as byte rows looked up once per run of equal ones,
``dddd-dd-dd`` dates as day numbers (days since 1970-01-01), and short
decimals as the double ``float`` gives them. Each parser also says which
fields are of its shape; any other field is left to the caller.

Record ingest imports this module on its first block, so a run from a
returns file holds neither its code nor its calendar tables: held from
start-up, they raised the raw desk run's peak RSS by ~0.5 MB.
"""

import datetime as dt

import numpy as np

_EPOCH = dt.date(1970, 1, 1).toordinal()


def _calendar():
    """The calendar of years 0 to 9999 (0 is not a year of
    ``date.fromisoformat``): whether each is a leap year, and its first
    day's number (days since 1970-01-01); each month's length and first day
    in a common and in a leap year, zero for months 0 and 13 to 99."""
    year = np.arange(10000)
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    length = 365 + leap
    year_start = np.cumsum(length) - length - (length[0] + _EPOCH - 1)
    month_length = np.zeros((2, 100), np.int32)
    month_length[:, 1:13] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
    month_length[1, 2] = 29
    month_start = np.cumsum(month_length, 1, dtype=np.int32) - month_length
    return leap, year_start.astype(np.int32), month_length, month_start


_LEAP, _YEAR_START, _MONTH_LENGTH, _MONTH_START = _calendar()
# year, month and day of a dddd-dd-dd field's ten digit values, each row
# of them no more than 9999, exact in float32
_YMD_WEIGHTS = np.array([[1000, 100, 10, 1, 0, 0, 0, 0, 0, 0],
                         [0, 0, 0, 0, 0, 10, 1, 0, 0, 0],
                         [0, 0, 0, 0, 0, 0, 0, 0, 10, 1]], np.float32)
_YMD_LIMIT = np.array([[9999], [99], [99]], np.int32)
# value fields beyond this many bytes are left to float(), so that one
# long field does not widen every row of its block
DECIMAL_BYTES = 24
_POWERS_OF_TEN = 10.0 ** np.arange(23)  # each exact


def _byte_rows(buf, starts, width):
    """The ``width`` bytes of ``buf`` from each of ``starts`` on, as
    ``width`` rows: row j holds the byte j places after each start."""
    return np.array([buf[starts + j] for j in range(width)],
                    np.uint8).reshape(width, starts.size)


def ticker_codes(buf, starts, widths, codes):
    """The codes in ``codes`` of the ASCII tickers at ``starts``: the
    tickers of each width are compared byte by byte with the one before
    them, and each run of equal ones is looked up once."""
    out = np.empty(starts.size, np.intp)
    for width in np.flatnonzero(np.bincount(widths)).tolist():
        at = np.flatnonzero(widths == width)
        names = _byte_rows(buf, starts[at], width)
        new = np.concatenate(([True],
                              (names[:, 1:] != names[:, :-1]).any(0)))
        firsts = [buf[a:a + width].tobytes().decode("ascii")
                  for a in starts[at[new]].tolist()]
        looked_up = np.fromiter(map(codes.__getitem__, firsts), np.intp,
                                len(firsts))
        out[at] = looked_up[np.cumsum(new) - 1]
    return out


def iso_days(buf, starts, widths):
    """The day numbers (days since 1970-01-01) of the ``dddd-dd-dd`` dates
    at ``starts``, and whether each field is one: ASCII digits around two
    dashes, and a day of the proleptic Gregorian calendar from year 1 on.
    Those are the texts of that shape that ``date.fromisoformat``
    accepts."""
    days = np.zeros(starts.size, np.int32)
    ok = widths == 10
    field = _byte_rows(buf, starts[ok], 10)
    digits = field - np.uint8(ord("0"))
    # clipped, so that the bytes of a field of another shape index the
    # calendar's tables too
    y, m, d = np.minimum(
        (_YMD_WEIGHTS @ digits.astype(np.float32)).astype(np.int32),
        _YMD_LIMIT)
    leap = _LEAP[y].view(np.uint8)
    good = ((digits[[0, 1, 2, 3, 5, 6, 8, 9]] <= 9).all(0)
            & (field[[4, 7]] == ord("-")).all(0)
            & (y >= 1) & (d >= 1) & (d <= _MONTH_LENGTH[leap, m]))
    days[ok] = _YEAR_START[y] + _MONTH_START[leap, m] + (d - 1)
    ok[ok] = good
    return days, ok


def decimals(buf, ends, widths):
    """The values of the decimals that end at ``ends``, and whether each
    field is one: up to ``DECIMAL_BYTES`` bytes of ASCII digits, with at
    most one '.' and an optional leading '-', whose digits, read as the
    integer M with k of them after the '.', give M < 2**53 and k <= 22.
    Then M and 10**k are exact doubles and M / 10**k, one correctly
    rounded division, is the double that ``float`` gives the text."""
    values = np.zeros(ends.size)
    ok = (widths >= 1) & (widths <= DECIMAL_BYTES)
    width = int(widths[ok].max(initial=0))
    ok &= ends >= width
    at = np.flatnonzero(ok)
    w = widths[at]
    # the fields right-aligned in rows of ``width`` bytes, the bytes before
    # each field masked out
    window = _byte_rows(buf, ends[at] - width, width)
    inside = np.arange(width)[:, None] >= width - w
    digits = (window - np.uint8(ord("0"))) * inside
    digit = (digits <= 9) & inside
    point = (window == ord(".")) & inside
    lead = window[width - w, np.arange(at.size)] == ord("-")
    n_points = point.sum(0, dtype=np.uint8)
    good = digit.sum(0, dtype=np.uint8) + n_points + lead == w
    digits *= digit
    mantissa = np.zeros(at.size)
    for row, past in zip(digits, ~point):  # Horner's rule, the '.' skipped
        np.multiply(mantissa, 10, out=mantissa, where=past)
        mantissa += row
    # digits after the '.': its distance from the field's end
    k = (np.arange(width - 1, -1, -1, dtype=np.float32)
         @ point.astype(np.float32)).astype(np.intp)
    good &= (digit.any(0) & (n_points <= 1)
             & (mantissa < 2.0 ** 53) & (k <= 22))
    value = mantissa / _POWERS_OF_TEN[np.minimum(k, 22)]
    values[at] = np.where(lead, -value, value)
    ok[at] = good
    return values, ok
