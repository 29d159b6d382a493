"""Server-side substrate: partial loading, data skipping, and the CIAO
server facade."""

from .ciao import CiaoServer, IngestSession
from .loader import ClientAssistedLoader, LoadReport, LoadSummary
from .pipeline import (
    IngestPipelineError,
    LoadSnapshot,
    ShardedIngestPipeline,
    validate_server_options,
)
from .skipping import (
    SkippingEstimate,
    estimate_skipping,
    query_predicate_ids,
    skipping_benefit_fractions,
)

__all__ = [
    "CiaoServer",
    "ClientAssistedLoader",
    "IngestPipelineError",
    "IngestSession",
    "LoadReport",
    "LoadSnapshot",
    "LoadSummary",
    "ShardedIngestPipeline",
    "SkippingEstimate",
    "estimate_skipping",
    "query_predicate_ids",
    "skipping_benefit_fractions",
    "validate_server_options",
]
