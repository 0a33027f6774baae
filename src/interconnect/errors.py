"""Error types shared across the interconnect.

Every operation documents a closed set of failure modes; each gets its own
exception class so callers can match on type instead of parsing messages.
All of them derive from InterconnectError.
"""

from __future__ import annotations


class InterconnectError(Exception):
    """Base class for all interconnect failures."""


# --- fabric ---------------------------------------------------------------


class UnknownTopic(InterconnectError):
    """Publish or subscribe referenced a topic that was never created."""


class InvalidMetadata(InterconnectError):
    """Envelope metadata is missing a required key or carries a bad value,
    or an audit field cannot be journaled as one field of one trace line."""


class SelectorSyntax(InterconnectError):
    """Subscription selector text does not parse."""


class UnknownNode(InterconnectError):
    """Operation named a node that is not registered with the fabric."""


class ModelAlreadyHosted(InterconnectError):
    """host_model named a model that some node already hosts."""


class NoEligibleModel(InterconnectError):
    """No registered model satisfies the required capability."""


class EmptyObjective(InterconnectError):
    """participateLearning called with an empty objective."""


# --- registry -------------------------------------------------------------


class DescriptorParseError(InterconnectError):
    """Descriptor document is not valid UTF-8 JSON."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class MissingField(InterconnectError):
    """Descriptor lacks a required field."""

    def __init__(self, path: str):
        super().__init__(f"missing required field: {path}")
        self.path = path


class BadValue(InterconnectError):
    """Descriptor field holds a value outside its contract."""

    def __init__(self, path: str, detail: str):
        super().__init__(f"bad value at {path}: {detail}")
        self.path = path


class DuplicateModelVersion(InterconnectError):
    """A descriptor with this (modelId, version) pair is already registered."""


class UnknownModel(InterconnectError):
    """Operation referenced a model id the registry has never seen."""


class BadQuery(InterconnectError):
    """Capability query violated its precondition (e.g. empty required set)."""


# --- negotiation ----------------------------------------------------------


class NegotiationFailed(InterconnectError):
    """Session cannot proceed; carries the failing reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class MissingScaleDeclaration(InterconnectError):
    """A peer did not declare a scale for the negotiated metric."""


class NonOverlappingSemantics(InterconnectError):
    """Peer scales use units with no conversion between them."""


class AdapterSynthesisFailed(InterconnectError):
    """No valid adapter could be built from the known schema mappings."""


# --- broker ---------------------------------------------------------------


class PlanningFailed(InterconnectError):
    """Planner could not produce a plan for the intent."""


class TaskFailed(InterconnectError):
    """Plan execution stopped at a failing task; carries the partial result."""

    def __init__(self, task_id: str, cause: str, result=None):
        super().__init__(f"task {task_id} failed: {cause}")
        self.task_id = task_id
        self.cause = cause
        self.result = result


# --- mape-k ---------------------------------------------------------------


class InsufficientData(InterconnectError):
    """Analysis requested before any monitoring data reached knowledge."""


class NoApplicableAction(InterconnectError):
    """No managed knob can address the reported findings."""


class ExecutionFailed(InterconnectError):
    """An adaptation action could not be applied."""

    def __init__(self, action: str):
        super().__init__(f"execution failed: {action}")
        self.action = action


# --- guard ----------------------------------------------------------------


class DeployWithoutVerdict(InterconnectError):
    """Deploy attempted without an Accepted sandbox verdict (or blocked)."""


class UnknownDeployment(InterconnectError):
    """Rollback referenced a deployment that does not exist or already rolled back."""


class TicketClosed(InterconnectError):
    """Ticket was already resolved."""


class UnknownTicket(InterconnectError):
    """No ticket with that id."""


class TicketStoreCorrupt(InterconnectError):
    """A ticket store line is not a well-formed ticket event."""


# --- simnet ---------------------------------------------------------------


class DuplicateNode(InterconnectError):
    """A node with this id already exists in the world."""


class UnknownScenario(InterconnectError):
    """Scenario name is not registered."""


class GoldenParseError(InterconnectError):
    """Golden trace file contains a malformed line."""

    def __init__(self, message: str, line_no: int = -1):
        super().__init__(message)
        self.line_no = line_no


class ScenarioAssertionFailed(InterconnectError):
    """A scenario-level assertion did not hold on the produced trace."""
