"""Virtual-time SPMD runtime: the simulated cluster substrate.

This package replaces the paper's physical platform (MPI + Global
Arrays on an Itanium/InfiniBand cluster) with a deterministic
discrete-event simulation: the SPMD program's *computation* runs for
real, while *time* is modelled by a calibrated :class:`MachineSpec`.
See ``DESIGN.md`` §2 for why this substitution preserves the behaviour
under study.
"""

from .cluster import Cluster, ClusterResult
from .clock import VirtualClock
from .comm import Communicator
from .context import RankContext
from .errors import (
    ClusterAborted,
    ClusterError,
    CollectiveMismatchError,
    CommTimeoutError,
    DeadlockError,
    RankCrashedError,
    RankFailedError,
    RuntimeMisuseError,
    TransientRpcError,
)
from .faults import (
    CrashFault,
    FaultInjector,
    FaultPlan,
    FsStallFault,
    MessageDelayFault,
    MessageDropFault,
    RpcFlakeFault,
    StragglerFault,
)
from .machine import MachineSpec, Scale
from .metrics import (
    MetricsRegistry,
    MetricsSchemaError,
    comm_matrix,
    counter_totals,
    render_report,
    stage_imbalance,
    to_prometheus,
    validate_snapshot,
)
from .payload import payload_nbytes
from .scheduler import Scheduler
from .service import Service
from .tracing import Span, Tracer
from .world import World

__all__ = [
    "Cluster",
    "ClusterResult",
    "Communicator",
    "ClusterAborted",
    "ClusterError",
    "CollectiveMismatchError",
    "CommTimeoutError",
    "CrashFault",
    "DeadlockError",
    "FaultInjector",
    "FaultPlan",
    "FsStallFault",
    "MessageDelayFault",
    "MessageDropFault",
    "RankCrashedError",
    "RankFailedError",
    "RpcFlakeFault",
    "StragglerFault",
    "TransientRpcError",
    "MachineSpec",
    "MetricsRegistry",
    "MetricsSchemaError",
    "comm_matrix",
    "counter_totals",
    "render_report",
    "stage_imbalance",
    "to_prometheus",
    "validate_snapshot",
    "RankContext",
    "RuntimeMisuseError",
    "Scale",
    "Scheduler",
    "Service",
    "Span",
    "Tracer",
    "VirtualClock",
    "World",
    "payload_nbytes",
]
