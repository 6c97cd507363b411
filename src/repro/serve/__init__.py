"""repro.serve — the networked profile-feedback service.

The paper's core observation — a scaled sum of *other* runs' profiles
predicts a held-out run nearly as well as self-prediction — is exactly
the contract of a production profile-feedback service: executing
instances upload branch counters, a central aggregator serves summary
predictions back.  This package is that service: an asyncio TCP server
(`server`), a length-prefixed versioned JSON protocol (`protocol`), an
epoch-stamped aggregator over one profile database with write-behind
persistence (`aggregator`), a resilient blocking client with offline degradation
(`client`), and observability (`metrics`).  Served predictions are
byte-identical to the offline ``combine_profiles``/``leave_one_out``
path — see docs/SERVE.md for the equivalence argument.
"""
from repro.serve.aggregator import Aggregator, database_predict
from repro.serve.client import (
    Prediction,
    ProfileClient,
    RetryPolicy,
    ServiceError,
    ServiceUnavailable,
)
from repro.serve.metrics import LatencyHistogram, ServiceMetrics
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    canonical_profile_bytes,
)
from repro.serve.server import ProfileServer, ServerThread

__all__ = [
    "Aggregator",
    "LatencyHistogram",
    "MAX_FRAME_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "Prediction",
    "ProfileClient",
    "ProfileServer",
    "ProtocolError",
    "RetryPolicy",
    "ServerThread",
    "ServiceError",
    "ServiceMetrics",
    "ServiceUnavailable",
    "canonical_profile_bytes",
    "database_predict",
]
