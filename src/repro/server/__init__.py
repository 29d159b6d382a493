"""Server-side substrate: partial loading, data skipping, and the CIAO
server facade."""

from .. import _lazy

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

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".ciao": ("CiaoServer", "IngestSession"),
    ".loader": ("ClientAssistedLoader", "LoadReport", "LoadSummary"),
    ".pipeline": (
        "IngestPipelineError", "LoadSnapshot", "ShardedIngestPipeline",
        "validate_server_options"),
    ".skipping": (
        "SkippingEstimate", "estimate_skipping", "query_predicate_ids",
        "skipping_benefit_fractions"),
})
