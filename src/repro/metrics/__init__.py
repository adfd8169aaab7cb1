"""Measurement substrate: time series, statistics, per-flow accounting."""

from repro.metrics.flowstats import FlowRecord, FlowTable
from repro.metrics.series import TimeSeries
from repro.metrics.stats import (
    geometric_mean,
    normalized_rates,
    percentile_summary,
    rate_balance_ratio,
)

__all__ = [
    "TimeSeries",
    "FlowRecord",
    "FlowTable",
    "percentile_summary",
    "rate_balance_ratio",
    "normalized_rates",
    "geometric_mean",
]
