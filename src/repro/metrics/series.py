"""Time-series recording.

Thin, allocation-friendly recorders used throughout the harness:

* :class:`TimeSeries` — (t, value) samples; queue-delay traces (Figures 6,
  11–13), probability traces (Figure 17) and utilization traces
  (Figure 18) are all instances, sampled by the testbed on the period the
  experiment asks for (1 s in the paper's plots, 100 ms for Figure 12's
  overshoot detail).

Storage
-------
Samples live in ``array('d')`` buffers: flat C double storage with
amortized-doubling growth, so an append is one unboxed store instead of
a boxed-``float`` + pointer append, and a million-sample trace costs
8 MB instead of ~28 MB of float objects.  The numpy export copies out of
the buffer (``np.frombuffer`` views would pin the buffer and make every
later append raise ``BufferError``) and is cached until the next append.
Pickles carry the raw buffers; :meth:`TimeSeries.__setstate__` also
accepts the plain-list payloads written by earlier versions, so old
result-cache entries stay loadable.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Union

import numpy as np

__all__ = ["TimeSeries"]


class TimeSeries:
    """Append-only series of (time, value) points with numpy export.

    The numpy arrays returned by :attr:`times`/:attr:`values` are built
    lazily and cached — figure and summary code calls ``window``/``mean``/
    ``max`` many times over the same finished series, and
    rebuilding a fresh array per access dominated those paths.  The cache
    is invalidated on :meth:`append`; treat the returned arrays as
    read-only snapshots.
    """

    __slots__ = ("name", "_t", "_v", "_t_arr", "_v_arr")

    def __init__(self, name: str = ""):
        self.name = name
        self._t: array = array("d")
        self._v: array = array("d")
        self._t_arr: Union[np.ndarray, None] = None
        self._v_arr: Union[np.ndarray, None] = None

    def append(self, t: float, value: float) -> None:
        self._t.append(t)
        self._v.append(value)
        self._t_arr = None
        self._v_arr = None

    def __len__(self) -> int:
        return len(self._t)

    @property
    def times(self) -> np.ndarray:
        arr = self._t_arr
        if arr is None:
            arr = self._t_arr = np.array(self._t, dtype=np.float64)
        return arr

    @property
    def values(self) -> np.ndarray:
        arr = self._v_arr
        if arr is None:
            arr = self._v_arr = np.array(self._v, dtype=np.float64)
        return arr

    def window(self, t_from: float, t_to: float) -> np.ndarray:
        """Values with t_from <= t < t_to."""
        t = self.times
        mask = (t >= t_from) & (t < t_to)
        return self.values[mask]

    # The cached arrays are derived state; keep pickles (result cache,
    # process-pool transfer) lean by rebuilding them on demand instead.
    def __getstate__(self) -> Dict[str, Any]:
        return {"name": self.name, "t": self._t, "v": self._v}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.name = state["name"]
        t, v = state["t"], state["v"]
        # Pre-buffer pickles stored plain lists of boxed floats.
        self._t = t if isinstance(t, array) else array("d", t)
        self._v = v if isinstance(v, array) else array("d", v)
        self._t_arr = None
        self._v_arr = None

    def mean(self, t_from: float = 0.0, t_to: float = float("inf")) -> float:
        vals = self.window(t_from, t_to)
        return float(np.mean(vals)) if vals.size else float("nan")

    def max(self, t_from: float = 0.0, t_to: float = float("inf")) -> float:
        vals = self.window(t_from, t_to)
        return float(np.max(vals)) if vals.size else float("nan")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TimeSeries {self.name!r} n={len(self)}>"
