"""Batched DTW kernel: one query against many candidates in lock-step.

The banded dynamic program advances row ``i`` of the query for *all*
candidates with a handful of numpy operations on ``(C, width)`` matrices
instead of ``C`` separate Python-level row loops.  The row update is the
same closed form used by :func:`repro.dtw.banded._banded_dtw_distance_only`:

    vals[j] = prefix[j] + min_{t <= j} (diag_or_up[t] - prefix[t - 1])

and because numpy's ``cumsum`` / ``minimum.accumulate`` / ``min`` apply the
same left-to-right order along the last axis of a 2-D array as on a 1-D
array, the batched distances are bit-identical to the per-pair ones.  The
per-pair kernel stays the oracle the equivalence suites compare against.

Two band layouts are accepted:

* **shared** — one ``(N, 2)`` band for every candidate (``full``,
  Sakoe–Chiba and Itakura over an equal-length collection).  Each row is a
  plain column slice of the ``(C, M)`` candidate matrix.
* **per candidate** — a ``(C, N, 2)`` stack, one band per candidate (the
  paper's adaptive bands, or any family over mixed lengths).  Each row
  reads every candidate's own window ``[lo_c, hi_c]`` through one gather
  over a sliding-window view, ``w`` columns wide where ``w`` is the row's
  widest window; the previous row is re-aligned the same way from an
  inf-padded buffer, and columns past a candidate's own width are reset
  to ``inf`` after the row update.  Because the scans run left to right,
  those extra columns never reach an in-band cell.  The gather costs
  1.5–1.7x the slicing on a shared band, which is why the shared layout
  keeps its own path.

Early abandonment works per candidate: a candidate whose whole row exceeds
the threshold can never beat it (costs are non-negative), so its row is
compacted out of the batch and contributes no further work; when every
candidate is abandoned the kernel returns immediately.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..dtw.banded import Band, abandon_cutoff
from ..exceptions import BandError

_NO_PATH = (
    "band does not admit any warp path from (0, 0) to (n-1, m-1); "
    "use repair=True to bridge gaps"
)


def banded_dtw_batch(
    query: np.ndarray,
    candidates: Union[np.ndarray, Sequence[np.ndarray]],
    band: Band,
    func,
    abandon_threshold: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Band-constrained DTW of one query against a stack of candidates.

    Parameters
    ----------
    query:
        Query series of length N.
    candidates:
        With a shared band, a ``(C, M)`` matrix of equal-length series.
        With per-candidate bands, either such a matrix or a sequence of
        ``C`` one-dimensional series of any lengths.
    band:
        *Validated* bands (see :func:`repro.dtw.banded.validate_band`):
        one ``(N, 2)`` band shared by every candidate, or a ``(C, N, 2)``
        stack holding each candidate's own band.
    func:
        Pointwise distance callable (broadcasting).
    abandon_threshold:
        Optional early-abandoning threshold applied to every candidate.

    Returns
    -------
    (distances, cells, abandoned):
        ``(C,)`` float distances (``inf`` where abandoned), ``(C,)`` int
        cells filled per candidate (counted up to the abandoned row, like
        the per-pair kernel), and a ``(C,)`` boolean abandonment mask.
    """
    xs = np.asarray(query, dtype=float)
    bands = np.asarray(band)
    if bands.ndim == 3:
        return _per_candidate_bands(xs, candidates, bands, func, abandon_threshold)
    ys = np.asarray(candidates, dtype=float)
    if ys.ndim != 2:
        raise ValueError("candidates must be a (C, M) matrix")
    return _shared_band(xs, ys, bands, func, abandon_threshold)


def _shared_band(
    xs: np.ndarray,
    ys: np.ndarray,
    band: np.ndarray,
    func,
    abandon_threshold: Optional[float],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lock-step DP with one band: every row is a column slice."""
    count, m = ys.shape
    n = xs.size
    inf = np.inf

    distances = np.full(count, inf)
    cells = np.zeros(count, dtype=np.int64)
    abandoned = np.zeros(count, dtype=bool)
    if count == 0:
        return distances, cells, abandoned

    # ``alive`` maps the rows still being computed back to their original
    # candidate indices; abandoned candidates are compacted out so their
    # rows stop being computed at all (each row's recurrence is
    # independent, so compaction cannot change the surviving values).
    alive = np.arange(count)
    ys_alive = ys
    prev_lo = prev_hi = -1
    prev_vals: Optional[np.ndarray] = None
    for i in range(n):
        lo = int(band[i, 0])
        hi = int(band[i, 1])
        width = hi - lo + 1
        cells[alive] += width
        row_cost = func(xs[i], ys_alive[:, lo: hi + 1])
        prefix = np.cumsum(row_cost, axis=1)
        if prev_vals is None:
            vals = prefix if lo == 0 else np.full((alive.size, width), inf)
        else:
            padded = np.full((alive.size, width + 1), inf)
            overlap_lo = max(lo - 1, prev_lo)
            overlap_hi = min(hi, prev_hi)
            if overlap_hi >= overlap_lo:
                padded[:, overlap_lo - (lo - 1): overlap_hi - (lo - 1) + 1] = (
                    prev_vals[:, overlap_lo - prev_lo: overlap_hi - prev_lo + 1]
                )
            diag_or_up = np.minimum(padded[:, :-1], padded[:, 1:])
            shifted = np.empty((alive.size, width))
            shifted[:, 0] = 0.0
            shifted[:, 1:] = prefix[:, :-1]
            vals = prefix + np.minimum.accumulate(diag_or_up - shifted, axis=1)
        if abandon_threshold is not None:
            exceeded = vals.min(axis=1) > abandon_cutoff(abandon_threshold)
            if exceeded.any():
                abandoned[alive[exceeded]] = True
                keep = ~exceeded
                if not keep.any():
                    return distances, cells, abandoned
                alive = alive[keep]
                ys_alive = ys_alive[keep]
                vals = vals[keep]
        prev_lo, prev_hi, prev_vals = lo, hi, vals

    if not (prev_lo <= m - 1 <= prev_hi):
        raise BandError(_NO_PATH)
    final = prev_vals[:, m - 1 - prev_lo]
    if not np.isfinite(final).all():
        raise BandError(_NO_PATH)
    distances[alive] = final
    return distances, cells, abandoned


def _per_candidate_bands(
    xs: np.ndarray,
    candidates: Union[np.ndarray, Sequence[np.ndarray]],
    bands: np.ndarray,
    func,
    abandon_threshold: Optional[float],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lock-step DP with one band per candidate: every row is a gather."""
    series = [np.asarray(y, dtype=float) for y in candidates]
    count = len(series)
    n = xs.size
    inf = np.inf
    if bands.shape != (count, n, 2):
        raise BandError(
            f"per-candidate bands must have shape ({count}, {n}, 2), "
            f"got {bands.shape}"
        )

    distances = np.full(count, inf)
    abandoned = np.zeros(count, dtype=bool)
    if count == 0:
        return distances, np.zeros(count, dtype=np.int64), abandoned

    lengths = np.array([y.size for y in series])
    # (N, C) layouts, so each row's windows are one contiguous read.
    los = np.ascontiguousarray(bands[:, :, 0].T)
    widths = np.ascontiguousarray(bands[:, :, 1].T) - los + 1
    cumulative_cells = np.cumsum(widths, axis=0)
    span = int(widths.max())
    # Every window [lo, lo + span) stays inside the padded rows; the pad
    # values only feed columns past a candidate's width, reset to inf.
    padded = np.zeros((count, int(lengths.max()) + span))
    for c, y in enumerate(series):
        padded[c, : y.size] = y
    windows = sliding_window_view(padded, span, axis=1)

    # Rows ping-pong between two buffers holding each row's values at
    # columns [pad, pad + width) with inf on both sides.  Column t of
    # row i's gather of row i - 1 is absolute column lo_c - 1 + t, which
    # sits at buffer column lo_c - prev_lo_c + span + t; a window lying
    # wholly outside the previous one is clipped onto the inf pad.
    pad = span + 1
    buffers = [np.full((count, span + 2 * pad), inf) for _ in range(2)]
    previous = [sliding_window_view(b, span + 1, axis=1) for b in buffers]
    written = [0, 0]
    starts = np.clip(los[1:] - los[:-1] + span, 0, 2 * span + 1)
    row_max = widths.max(axis=1)
    columns = np.arange(span)

    alive = np.arange(count)
    rows = np.arange(count)
    last_row = np.full(count, n - 1)
    for i in range(n):
        lo = los[i]
        width = widths[i]
        w = int(row_max[i])
        size = alive.size
        cur = i % 2
        out = buffers[cur][:size, pad: pad + w]
        if written[cur] > w:
            buffers[cur][:size, pad + w: pad + written[cur]] = inf
        written[cur] = w
        row_cost = func(xs[i], windows[alive, lo, :w])
        prefix = np.cumsum(row_cost, axis=1)
        if i == 0:
            out[...] = prefix
            out[lo != 0] = inf
        else:
            prev = previous[1 - cur][rows[:size], starts[i - 1], : w + 1]
            # diag_or_up[t] - prefix[t - 1], prefix[-1] taken as 0.
            step = np.minimum(prev[:, :-1], prev[:, 1:])
            step[:, 1:] -= prefix[:, :-1]
            np.add(prefix, np.minimum.accumulate(step, axis=1), out=out)
        out[columns[:w] >= width[:, None]] = inf
        if abandon_threshold is not None:
            exceeded = out.min(axis=1) > abandon_cutoff(abandon_threshold)
            if exceeded.any():
                abandoned[alive[exceeded]] = True
                last_row[alive[exceeded]] = i
                keep = ~exceeded
                if not keep.any():
                    break
                alive = alive[keep]
                los = los[:, keep]
                widths = widths[:, keep]
                starts = starts[:, keep]
                row_max = widths.max(axis=1)
                buffers[cur][: alive.size] = buffers[cur][:size][keep]

    cells = cumulative_cells[last_row, np.arange(count)]
    if abandoned.all():
        return distances, cells, abandoned
    last = lengths[alive] - 1 - los[n - 1]
    if ((last < 0) | (last >= widths[n - 1])).any():
        raise BandError(_NO_PATH)
    final = buffers[(n - 1) % 2][rows[: alive.size], pad + last]
    if not np.isfinite(final).all():
        raise BandError(_NO_PATH)
    distances[alive] = final
    return distances, cells, abandoned
