"""Evaluation harness: dumbbell topology, experiments, scenarios, sweeps."""

from repro.harness.cache import ResultCache, experiment_cache_key
from repro.harness.experiment import (
    Experiment,
    ExperimentResult,
    FlowGroup,
    ResultMetrics,
    UdpGroup,
    run_experiment,
)
from repro.harness.factories import (
    FACTORIES,
    NamedAqmFactory,
    bare_pie_factory,
    coupled_factory,
    pi2_factory,
    pi_factory,
    pie_factory,
    taildrop_factory,
)
from repro.harness.frozen import FrozenResult, freeze_result
from repro.harness.journal import JournalRecord, JournalReplay, ResultJournal
from repro.harness.parallel import RunReport, SweepTask, execute_tasks, resolve_jobs
from repro.harness.repeat import MetricEstimate
from repro.harness.resilience import (
    Attempt,
    RecoveryAction,
    RunFailure,
    format_failure_report,
    format_recovery_report,
    run_with_retries,
)
from repro.harness.supervisor import SupervisorConfig
from repro.harness.scenarios import (
    MBPS,
    coexistence_mix,
    coexistence_pair,
    heavy_tcp,
    light_tcp,
    tcp_plus_udp,
    varying_capacity,
    varying_intensity,
)
from repro.harness.sweep import (
    PAPER_LINK_MBPS,
    PAPER_RTTS_MS,
    GridCell,
    GridOutcome,
    format_table,
    run_coexistence_grid,
)
from repro.harness.topology import Dumbbell

__all__ = [
    "Experiment",
    "ExperimentResult",
    "FlowGroup",
    "UdpGroup",
    "run_experiment",
    "MetricEstimate",
    "RunFailure",
    "run_with_retries",
    "format_failure_report",
    "Dumbbell",
    "MBPS",
    "light_tcp",
    "heavy_tcp",
    "tcp_plus_udp",
    "varying_intensity",
    "varying_capacity",
    "coexistence_pair",
    "coexistence_mix",
    "GridCell",
    "GridOutcome",
    "run_coexistence_grid",
    "format_table",
    "PAPER_LINK_MBPS",
    "PAPER_RTTS_MS",
    "pie_factory",
    "bare_pie_factory",
    "pi_factory",
    "pi2_factory",
    "coupled_factory",
    "taildrop_factory",
    "FACTORIES",
    "NamedAqmFactory",
    "ResultMetrics",
    "FrozenResult",
    "freeze_result",
    "ResultCache",
    "experiment_cache_key",
    "SweepTask",
    "RunReport",
    "execute_tasks",
    "resolve_jobs",
    "Attempt",
    "RecoveryAction",
    "format_recovery_report",
    "JournalRecord",
    "JournalReplay",
    "ResultJournal",
    "SupervisorConfig",
]
