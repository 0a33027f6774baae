"""Desk-scale AI interconnect: a semantic pub/sub fabric with audited AI
operations, a model registry with an interoperability negotiator, an
intent-decomposing task broker, a self-managing control loop over a simulated
network, and a guarded path from generated programs to live configuration.

Everything observable is deterministic: logical time instead of wall clocks,
rational arithmetic instead of floats, and sequential ids, so whole runs
replay byte for byte and freeze into golden traces.
"""

from .broker import (
    Intent,
    MockPlanner,
    PlanResult,
    Task,
    TaskBroker,
    TaskKind,
    TaskPlan,
)
from .errors import InterconnectError
from .fabric import (
    AuditLog,
    AuditOp,
    CompletionToken,
    Fabric,
    MessageEnvelope,
    Selector,
    Subscription,
    SubscriptionKind,
    SubscriptionMode,
    TagPredicate,
    TokenState,
)
from .guard import (
    ConsensusResult,
    DeploymentRecord,
    Guard,
    GuardedProgram,
    HitlTicket,
    NamedInvariant,
    SandboxVerdict,
    TicketBook,
    TicketState,
    knob_within,
    min_total_throughput,
    parse_program,
    structural_hash,
)
from .mapek import (
    AdaptationPlan,
    Finding,
    KnowledgeBase,
    LoopReport,
    ManagedAction,
    MapeKLoop,
    convergence_oracle,
)
from .negotiation import (
    AdapterSpec,
    CanonicalScale,
    CompatVerdict,
    NegotiationSession,
    Negotiator,
    Phase,
    SchemaMapping,
    apply_adapter,
)
from .registry import (
    Capability,
    ModelCategory,
    ModelDescriptor,
    ModelRegistry,
    Version,
    parse_descriptor,
    serialize_descriptor,
)
from .scenarios import SCENARIOS, run_scenario
from .simnet import ADMISSION_KNOB, RATE_LIMIT_KNOB, LoadModel, NodeKind, SimWorld, WorldState
from .trace import AuditEvent, Trace, TraceDiff, compare_traces, parse_trace

__version__ = "0.1.0"

__all__ = [
    "ADMISSION_KNOB",
    "AdaptationPlan",
    "AdapterSpec",
    "AuditEvent",
    "AuditLog",
    "AuditOp",
    "CanonicalScale",
    "Capability",
    "CompatVerdict",
    "CompletionToken",
    "ConsensusResult",
    "DeploymentRecord",
    "Fabric",
    "Finding",
    "Guard",
    "GuardedProgram",
    "HitlTicket",
    "InterconnectError",
    "Intent",
    "KnowledgeBase",
    "LoadModel",
    "LoopReport",
    "ManagedAction",
    "MapeKLoop",
    "MessageEnvelope",
    "MockPlanner",
    "ModelCategory",
    "ModelDescriptor",
    "ModelRegistry",
    "NamedInvariant",
    "NegotiationSession",
    "Negotiator",
    "NodeKind",
    "Phase",
    "PlanResult",
    "RATE_LIMIT_KNOB",
    "SCENARIOS",
    "SandboxVerdict",
    "SchemaMapping",
    "Selector",
    "SimWorld",
    "Subscription",
    "SubscriptionKind",
    "SubscriptionMode",
    "TagPredicate",
    "Task",
    "TaskBroker",
    "TaskKind",
    "TaskPlan",
    "TicketBook",
    "TicketState",
    "TokenState",
    "Trace",
    "TraceDiff",
    "Version",
    "WorldState",
    "apply_adapter",
    "compare_traces",
    "convergence_oracle",
    "knob_within",
    "min_total_throughput",
    "parse_descriptor",
    "parse_program",
    "parse_trace",
    "run_scenario",
    "serialize_descriptor",
    "structural_hash",
    "__version__",
]
