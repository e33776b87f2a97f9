"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch the whole family with a single ``except`` clause while standard Python
errors (``TypeError`` from bad argument *types*, for instance) propagate
unchanged.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidParameterError",
    "InvalidProfileError",
    "InfeasibleScheduleError",
    "ProtocolError",
    "SimulationError",
    "SamplingError",
    "ExperimentError",
    "FaultInjectionError",
    "FaultSpecError",
    "RecoveryError",
    "CodedSchemeError",
    "StreamError",
    "StreamEventError",
    "CLIENT_ERRORS",
    "FAULT_ERRORS",
    "error_class",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class InvalidParameterError(ReproError, ValueError):
    """An architectural model parameter (τ, π, δ, L, …) is out of range.

    Raised, for example, for a negative transit rate, for δ > 1 (the model
    requires each unit of work to produce at most one unit of results), or
    when a parameter combination violates the standing assumption
    ``τδ ≤ A ≤ B`` of Section 4 of the paper.
    """


class InvalidProfileError(ReproError, ValueError):
    """A heterogeneity profile violates the model's invariants.

    Profiles must be non-empty vectors of finite ρ-values with
    ``0 < ρᵢ`` for every computer; several operations additionally require
    values ``≤ 1`` (the paper's normalisation) or strict orderings.
    """


class InfeasibleScheduleError(ReproError, ValueError):
    """A worksharing schedule cannot be realised.

    Typical causes: a lifespan ``L`` too short for the requested protocol
    (Theorem 1 only applies to "sufficiently long" lifespans), or an
    allocation whose message timeline would need two messages in transit
    at once.
    """


class ProtocolError(ReproError, ValueError):
    """A worksharing protocol specification is malformed.

    For example a startup or finishing order that is not a permutation of
    the cluster's computers.
    """


class SimulationError(ReproError, RuntimeError):
    """The discrete-event simulator reached an inconsistent state."""


class SamplingError(ReproError, ValueError):
    """A random-profile sampler could not satisfy its constraints.

    The equal-mean pair generators, for instance, raise this when asked for
    a target mean that cannot be met with ρ-values in (0, 1].
    """


class ExperimentError(ReproError, RuntimeError):
    """An experiment was misconfigured or failed to produce a result."""


class FaultInjectionError(ReproError, ValueError):
    """A fault model or scenario is malformed.

    Raised for negative fault times, slowdown factors below 1, loss
    probabilities outside [0, 1), or faults addressed to computers the
    cluster does not have.
    """


class FaultSpecError(FaultInjectionError):
    """A textual ``--faults`` specification could not be parsed.

    See :func:`repro.faults.spec.parse_faults` for the grammar.
    """


class RecoveryError(ReproError, RuntimeError):
    """The recovery layer was misconfigured or reached an absurd state.

    Raised, for example, for a non-positive recovery-round budget or a
    detection timeout that is negative.
    """


class StreamError(ReproError, RuntimeError):
    """The streaming digital-twin layer was misconfigured.

    Raised, for example, for a non-positive window size or a replay
    source pointed at a stored run that recorded no events.
    """


class StreamEventError(StreamError, ValueError):
    """A stream event could not be parsed or validated.

    Messages name the line number and character offset of the defect
    (the same contract :func:`repro.faults.spec.parse_faults` gives
    fault clauses), and the CLI/service map the class to the
    invalid-input surface (exit code 2 / HTTP 400).
    """

    def __init__(self, message: str, *, field: str | None = None) -> None:
        super().__init__(message)
        #: The offending JSON field, when the defect is attributable to
        #: one — lets the line-level wrapper point at its char offset.
        self.field = field


class CodedSchemeError(ProtocolError):
    """A proactive-redundancy scheme is malformed.

    Raised for a replication factor below 1, an MDS scheme with
    ``k > n`` shares, or an unparseable ``--scheme`` string.  Subclasses
    :class:`ProtocolError`: a redundancy scheme is a statement about how
    work is laid out across the cluster, and the CLI/service map it to
    the same invalid-input surface (exit code 2 / HTTP 400).
    """


#: Errors that mean "the input was invalid", not "the library broke":
#: the service answers them with HTTP 400.
CLIENT_ERRORS: tuple[type[ReproError], ...] = (
    InvalidParameterError, InvalidProfileError, InfeasibleScheduleError,
    ProtocolError, FaultSpecError, StreamError)

#: The fault/simulation family: CLI exit code 3, and HTTP 500 labelled
#: ``"family": "fault"`` (a malformed ``--faults`` spec is in both
#: tuples; the service checks :data:`CLIENT_ERRORS` first).
FAULT_ERRORS: tuple[type[ReproError], ...] = (
    SimulationError, FaultInjectionError, RecoveryError)


def error_class(error: str) -> type[Exception]:
    """The error class named by an ``"ExcName: message"`` string.

    That is how a batch item reports its worker's exception.  Returns
    :class:`Exception` when the name is not one of this module's
    classes.
    """
    cls = globals().get(error.split(":", 1)[0])
    if isinstance(cls, type) and issubclass(cls, ReproError):
        return cls
    return Exception
