"""Tool-augmented multimodal hallucination detection and its evaluation harness.

The pipeline takes an image-text pair, extracts (or receives) its claims,
routes each claim to aspect-oriented tools via model-formulated queries, runs
the tools concurrently, and asks the underlying model for a per-claim verdict
grounded in the pooled evidence. The harness side scores claim, segment, and
response-level predictions against gold labels with per-class P/R/F1,
accuracy, macro-F1, annotator agreement, and per-category recall.
"""

from types import ModuleType as _ModuleType

from .bench import BenchmarkFile, convert_predictions, load, save, stats
from .cache import CacheKey, DiskCache
from .errors import HalodetError
from .executor import (
    BatchOutcome,
    DetectionResult,
    TraceRecord,
    run_batch,
    run_detection,
    write_run_dir,
)
from .gateway import (
    ModelGateway,
    ModelRequest,
    ModelResponse,
    PurposeTag,
)
from .metrics import (
    MetricLevel,
    MetricsReport,
    RatingsMatrix,
    derive_response_label,
    derive_segment_label,
    fleiss_kappa,
    per_category_recall,
    prf1,
    report,
)
from .model import (
    Claim,
    Evidence,
    EvidenceBundle,
    HallucinationCategory,
    ImageRef,
    ImageTextPair,
    Label,
    NormBox,
    ParseFlag,
    Segment,
    TaskType,
    Verdict,
    validate_norm_box,
    validate_pair,
)
from .prompts import RenderedPrompt, SupplementalId, TemplateId, render, render_claim_list
from .stages import (
    ClaimQueries,
    DetectionMethod,
    SelfCheckDemo,
    ToolPlan,
    extract_claims,
    parse_claim_query_map,
    parse_verdicts,
    self_check,
    verify,
)
from .tools import (
    FactSnippet,
    ToolBackendSet,
    answer_attribute,
    detect_objects,
    format_evidence_sections,
    read_scene_text,
    search_facts,
)

__version__ = "0.1.0"

# Every public name bound above, and nothing else, is exported.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
