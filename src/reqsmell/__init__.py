"""reqsmell: bad-smell detection for natural-language requirements.

Computes nine dictionary- and statistics-based metrics per requirement
(vagueness, document and notation references, optionality, subjectivity,
weakness, conjunction count, word count, readability), flags requirements
against user-supplied thresholds, and renders deterministic reports.
"""

__version__ = "0.1.0"  # reporting and cli read it

# Each submodule and the public names it defines. A submodule loads on the
# first use of one of its names or of its own name (PEP 562), so a caller
# that only analyses text never loads ingestion or reporting.
_EXPORTS = {
    "dictionaries": ("DICTIONARY_METRICS", "Dictionary", "PhraseMatcher", "PhrasePattern",
                     "builtin_dictionaries", "load_dictionary_file"),
    "errors": ("CorpusError", "MalformedFileError", "ReqsmellError"),
    "ingestion": ("ColumnMapping", "Requirement", "load_requirements"),
    "metrics": ("ALL_METRICS", "AnalysisConfig", "MetricVector", "analyze_text"),
    "reporting": ("AnalysisReport", "RequirementEntry", "ThresholdRule", "build_report",
                  "load_threshold_file", "parse_threshold_rules", "render"),
    "text": ("normalize",),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_ORIGIN)


def __getattr__(name):
    module = name if name in _EXPORTS else _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Importing a submodule binds it in these globals; binding the name too
    # makes every later access a plain attribute hit. __import__, not
    # `from . import`: that would call this function again first.
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_ORIGIN})
