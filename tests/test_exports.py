"""The package's public names: adding or removing one shows up here."""

import reqsmell

EXPORTS = [
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


def test_all_lists_exactly_the_public_names():
    assert reqsmell.__all__ == EXPORTS
    assert EXPORTS == sorted(EXPORTS)  # sorted as strings: upper case first


def test_every_public_name_resolves():
    for name in reqsmell.__all__:
        assert getattr(reqsmell, name) is not None, name
    namespace: dict = {}
    exec("from reqsmell import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)
