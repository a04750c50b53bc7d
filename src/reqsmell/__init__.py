"""reqsmell: bad-smell detection for natural-language requirements.

Computes nine dictionary- and statistics-based metrics per requirement
(vagueness, document and notation references, optionality, subjectivity,
weakness, conjunction count, word count, readability), flags requirements
against user-supplied thresholds, and renders deterministic reports.
"""

__version__ = "0.1.0"  # set before the submodules are imported: reporting reads it

from .dictionaries import (
    DICTIONARY_METRICS,
    Dictionary,
    PhraseMatcher,
    PhrasePattern,
    builtin_dictionaries,
    load_dictionary_file,
)
from .errors import CorpusError, MalformedFileError, ReqsmellError
from .ingestion import ColumnMapping, Requirement, load_requirements
from .metrics import ALL_METRICS, AnalysisConfig, MetricVector, analyze_text
from .reporting import (
    AnalysisReport,
    RequirementEntry,
    ThresholdRule,
    build_report,
    load_threshold_file,
    parse_threshold_rules,
    render,
)
from .text import normalize

__all__ = [
    "ALL_METRICS",
    "AnalysisConfig",
    "AnalysisReport",
    "ColumnMapping",
    "CorpusError",
    "DICTIONARY_METRICS",
    "Dictionary",
    "MalformedFileError",
    "MetricVector",
    "PhraseMatcher",
    "PhrasePattern",
    "ReqsmellError",
    "Requirement",
    "RequirementEntry",
    "ThresholdRule",
    "analyze_text",
    "build_report",
    "builtin_dictionaries",
    "load_dictionary_file",
    "load_requirements",
    "load_threshold_file",
    "normalize",
    "parse_threshold_rules",
    "render",
]
