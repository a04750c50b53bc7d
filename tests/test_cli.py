"""End-to-end tests for the command-line interface."""

import csv
import errno
import io
import json
import os
import re
import socket
import stat
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import pytest

import reqsmell
from reqsmell import __version__, cli, reporting
from reqsmell.cli import EXIT_ERROR, EXIT_FLAGGED, EXIT_OK, main, run
from reqsmell.ingestion import ColumnMapping, load_requirements
from reqsmell.metrics import AnalysisConfig, analyze_text
from reqsmell.reporting import REPORT_FORMATS, build_report, load_threshold_file, render

DATA = Path(__file__).parent / "data"
PACKAGE_ROOT = str(Path(reqsmell.__file__).parent.parent)


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text(
        "ID,Text\n"
        "R1,The system may fail based on some conditions.\n"
        "R2,It runs.\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture
def thresholds(tmp_path):
    path = tmp_path / "thresholds.txt"
    path.write_text("V >= 2\n", encoding="utf-8")
    return path


class TestHappyPaths:
    def test_table_to_stdout(self, corpus, capsys):
        assert run(["--input", str(corpus)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("id")
        assert "R1" in out and "R2" in out
        assert "requirements: 2" in out

    def test_json_format(self, corpus, capsys):
        assert run(["--input", str(corpus), "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "reqsmell"
        assert payload["version"] == __version__
        assert [r["id"] for r in payload["requirements"]] == ["R1", "R2"]
        assert payload["requirements"][0]["metrics"]["V"] == 3

    def test_csv_format(self, corpus, capsys):
        assert run(["--input", str(corpus), "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "id,V,NR1,NR2,O,S,W,NC,NW,ARI,flags"
        assert len(lines) == 3

    def test_output_file(self, corpus, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert run(["--input", str(corpus), "--format", "json", "--output", str(target)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text(encoding="utf-8"))["tool"] == "reqsmell"

    def test_output_is_deterministic_across_runs(self, corpus, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        run(["--input", str(corpus), "--format", "json", "--output", str(first)])
        run(["--input", str(corpus), "--format", "json", "--output", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_report_is_identical_across_hash_seeds(self, tmp_path):
        # frozenset iteration order, and with it the order in which patterns
        # reach the trie, changes with PYTHONHASHSEED; the report must not.
        # The glossary nests literals inside one metric and across metrics,
        # with gaps (no pattern on "may have" in V) that a text walks into,
        # and puts participle slots at two depths.
        glossary = tmp_path / "glossary.txt"
        glossary.write_text(
            "[V]\nmay\nmay have been done\nshall be\nshall be able to\nshould have <PP>\nit\nit shall not be\n"
            "[W]\nshall\nshall be able to work\nbe <PP>\nmay have\n"
            "[O]\nmay\nmay be <PP>\nshould have\nshould have been seen\n"
            "[NC]\nand\nand or else\nor\nbe\nor so and\n",
            encoding="utf-8",
        )
        corpus = tmp_path / "corpus.csv"
        texts = [
            "It may have been tested and or shall be able now",
            "It shall be able to run; it may be built or so should have written logs",
            "The unit should have been shown and may have seen it. It shall be able",
            "Shall be; may be done; be taken and or shall should have been may",
            "It shall not fail and or else it may have gone or so",
        ]
        corpus.write_text("ID,Text\n" + "".join(f"R{i},{t}\n" for i, t in enumerate(texts)), encoding="utf-8")
        reports = set()
        for seed in ("0", "1", "2"):
            result = subprocess.run(
                [sys.executable, "-m", "reqsmell", "--input", str(corpus), "--dictionaries", str(glossary),
                 "--format", "json"],
                env={**os.environ, "PYTHONPATH": PACKAGE_ROOT, "PYTHONHASHSEED": seed},
                capture_output=True,
            )
            assert result.returncode == 0, result.stderr
            reports.add(result.stdout)
        assert len(reports) == 1
        assert b'"should have written"' in reports.pop()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
                             ids=["022", "077", "002"])
    def test_output_file_mode_follows_umask(self, corpus, tmp_path, umask, mode):
        target = tmp_path / "report.csv"
        previous = os.umask(umask)
        try:
            assert run(["--input", str(corpus), "--format", "csv", "--output", str(target)]) == EXIT_OK
        finally:
            os.umask(previous)
        assert stat.S_IMODE(target.stat().st_mode) == mode

    def test_output_file_leaves_the_process_umask_alone(self, corpus, tmp_path, monkeypatch):
        # Setting the umask to read it changes it for every thread of the process meanwhile.
        monkeypatch.setattr(os, "umask", lambda *args: pytest.fail("os.umask called"))
        assert run(["--input", str(corpus), "--format", "csv", "--output", str(tmp_path / "report.csv")]) == EXIT_OK

    def test_no_temp_files_left_behind(self, corpus, tmp_path):
        target = tmp_path / "report.csv"
        run(["--input", str(corpus), "--format", "csv", "--output", str(target)])
        leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".reqsmell-")]
        assert leftovers == []

    def test_output_through_a_symlink_writes_its_target(self, corpus, tmp_path):
        args = ["--input", str(corpus), "--format", "csv", "--output"]
        plain = tmp_path / "plain.csv"
        assert run([*args, str(plain)]) == EXIT_OK
        (tmp_path / "target.csv").write_text("old report\n", encoding="utf-8")
        for link, target in (("link.csv", "target.csv"), ("dangling.csv", "new.csv")):
            (tmp_path / link).symlink_to(target)  # relative to the link's directory
            assert run([*args, str(tmp_path / link)]) == EXIT_OK
            assert os.readlink(tmp_path / link) == target
            assert (tmp_path / target).read_bytes() == plain.read_bytes()
        names = ["corpus.csv", "dangling.csv", "link.csv", "new.csv", "plain.csv", "target.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names

    def test_output_into_a_fifo_writes_into_it(self, corpus, tmp_path):
        args = ["--input", str(corpus), "--format", "csv", "--output"]
        plain = tmp_path / "plain.csv"
        assert run([*args, str(plain)]) == EXIT_OK
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert run([*args, str(fifo)]) == EXIT_OK
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert received == [plain.read_bytes()]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.csv", "fifo", "plain.csv"]

    @pytest.mark.parametrize("fmt", REPORT_FORMATS)
    def test_only_the_json_report_builds_spans(self, corpus, monkeypatch, capsys, fmt):
        built = []
        real = cli.build_report

        def recording(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli, "build_report", recording)
        assert run(["--input", str(corpus), "--format", fmt]) == EXIT_OK
        capsys.readouterr()
        (report,) = built
        assert report.with_spans == (fmt == "json")
        assert (sum(len(entry.vector.spans) for entry in report.entries) > 0) == (fmt == "json")

    def test_custom_columns_and_tab_delimiter(self, tmp_path, capsys):
        path = tmp_path / "corpus.tsv"
        path.write_text("Key\tBody\nA1\tcan may optionally\n", encoding="utf-8")
        code = run([
            "--input", str(path),
            "--id-column", "Key",
            "--text-column", "Body",
            "--delimiter", "\\t",
            "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["requirements"][0]["metrics"]["O"] == 3

    def test_dictionary_override(self, corpus, tmp_path, capsys):
        override = tmp_path / "dict.txt"
        override.write_text("[V]\nzzz\n", encoding="utf-8")
        run(["--input", str(corpus), "--dictionaries", str(override), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["requirements"][0]["metrics"]["V"] == 0
        assert payload["config"]["dictionaries"]["V"]["origin"] == "user-file"
        assert payload["config"]["dictionaries"]["O"]["origin"] == "builtin"


class TestExitCodes:
    def test_fail_on_flagged_with_hits(self, corpus, thresholds, capsys):
        code = run([
            "--input", str(corpus),
            "--thresholds", str(thresholds),
            "--fail-on-flagged",
            "--format", "json",
        ])
        assert code == EXIT_FLAGGED
        payload = json.loads(capsys.readouterr().out)
        assert payload["requirements"][0]["flags"] == ["V"]

    def test_flagged_without_opt_in_still_succeeds(self, corpus, thresholds, capsys):
        assert run(["--input", str(corpus), "--thresholds", str(thresholds)]) == EXIT_OK
        capsys.readouterr()

    def test_fail_on_flagged_with_no_hits(self, corpus, tmp_path, capsys):
        lenient = tmp_path / "lenient.txt"
        lenient.write_text("NW > 9000\n", encoding="utf-8")
        code = run(["--input", str(corpus), "--thresholds", str(lenient), "--fail-on-flagged"])
        assert code == EXIT_OK
        capsys.readouterr()

    def test_version_exits_zero(self, capsys):
        assert run(["--version"]) == EXIT_OK
        assert __version__ in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == EXIT_OK
        assert "--fail-on-flagged" in capsys.readouterr().out

    def test_main_raises_systemexit(self, corpus, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["reqsmell", "--input", str(corpus)])
        with pytest.raises(SystemExit) as info:
            main()
        assert info.value.code == EXIT_OK
        capsys.readouterr()


class TestErrorPaths:
    def test_missing_input_file(self, tmp_path, capsys):
        assert run(["--input", str(tmp_path / "absent.csv")]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_required_argument(self, capsys):
        assert run([]) == EXIT_ERROR
        assert "--input" in capsys.readouterr().err

    def test_unknown_flag(self, corpus, capsys):
        assert run(["--input", str(corpus), "--bogus"]) == EXIT_ERROR
        capsys.readouterr()

    def test_timestamp_is_no_longer_an_option(self, corpus, tmp_path, capsys):
        # A report depends only on its inputs, so it has no generation time.
        output = tmp_path / "report.json"
        assert run(["--input", str(corpus), "--format", "json", "--output", str(output), "--timestamp"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: reqsmell")
        assert captured.err.endswith("error: unrecognized arguments: --timestamp\n")
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.csv"]

    def test_bad_delimiter(self, corpus, capsys):
        assert run(["--input", str(corpus), "--delimiter", "::"]) == EXIT_ERROR
        assert "delimiter" in capsys.readouterr().err

    def test_missing_column(self, tmp_path, capsys):
        path = tmp_path / "corpus.csv"
        path.write_text("Key,Text\nA,x\n", encoding="utf-8")
        assert run(["--input", str(path)]) == EXIT_ERROR
        assert "'ID'" in capsys.readouterr().err

    def test_malformed_thresholds(self, corpus, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("V ~= 2\n", encoding="utf-8")
        assert run(["--input", str(corpus), "--thresholds", str(bad)]) == EXIT_ERROR
        assert "line 1" in capsys.readouterr().err

    def test_malformed_rule_files_name_themselves(self, corpus, tmp_path, capsys):
        # Both files hold "unknown metric 'FOO'" on line 2; only the path
        # tells the two errors apart.
        dictionary = tmp_path / "d.txt"
        dictionary.write_text("# overrides\n[FOO]\nbar\n", encoding="utf-8")
        thresholds = tmp_path / "t.txt"
        thresholds.write_text("V >= 1\nFOO >= 2\n", encoding="utf-8")
        args = ["--input", str(corpus), "--dictionaries", str(dictionary), "--thresholds", str(thresholds)]
        assert run(args) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {dictionary}: line 2: unknown metric 'FOO'\n"
        dictionary.write_text("[V]\nmay\n", encoding="utf-8")
        assert run(args) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {thresholds}: line 2: unknown metric 'FOO'\n"

    def test_thresholds_not_utf8(self, corpus, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"V >= \xff\n")
        assert run(["--input", str(corpus), "--thresholds", str(bad)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not valid UTF-8" in err
        assert len(err.splitlines()) == 1

    def test_unterminated_quote(self, tmp_path, capsys):
        path = tmp_path / "corpus.csv"
        path.write_text('ID,Text\nR1,"unterminated\nR2,second row\nR3,third\n', encoding="utf-8")
        assert run(["--input", str(path), "--format", "csv"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err == "error: row 2: unexpected end of data\n"
        assert captured.out == ""

    def test_malformed_dictionary(self, corpus, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("[NOPE]\nx\n", encoding="utf-8")
        assert run(["--input", str(corpus), "--dictionaries", str(bad)]) == EXIT_ERROR
        assert "unknown metric" in capsys.readouterr().err

    def test_output_that_is_a_directory(self, corpus, tmp_path, capsys):
        target = tmp_path / "reports"
        target.mkdir()
        assert run(["--input", str(corpus), "--output", str(target)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: --output {target} is a directory\n"
        # Nothing is created in the directory or next to it.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.csv", "reports"]
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--thresholds", "--dictionaries", "--output"])
    def test_an_empty_path_fails_to_open(self, corpus, tmp_path, monkeypatch, capsys, flag):
        # An empty value is a path that does not exist, not an absent flag,
        # and for --output not the working directory.
        monkeypatch.chdir(tmp_path)
        assert run(["--input", str(corpus), "--fail-on-flagged", flag, ""]) == EXIT_ERROR
        assert capsys.readouterr() == ("", "error: [Errno 2] No such file or directory: ''\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.csv"]

    def test_unwritable_output_directory(self, corpus, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "report.json"
        assert run(["--input", str(corpus), "--output", str(target)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_output_directory_names_the_given_path(self, corpus, tmp_path, capsys):
        target = tmp_path / "missing" / "r.txt"
        assert run(["--input", str(corpus), "--output", str(target)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"

    def test_paths_with_line_breaks_keep_the_error_on_one_line(self, corpus, tmp_path, capsys):
        rules = tmp_path / "bad\nname.txt"
        rules.write_text("FOO >= 1\n", encoding="utf-8")
        assert run(["--input", str(corpus), "--thresholds", str(rules)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {tmp_path / 'bad'}\\nname.txt: line 1: unknown metric 'FOO'\n"
        directory = tmp_path / "out\ndir"
        directory.mkdir()
        assert run(["--input", str(corpus), "--output", str(directory)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: --output {tmp_path / 'out'}\\ndir is a directory\n"

    @pytest.mark.parametrize("link", ["same path", "symlink", "hard link"])
    def test_output_that_is_the_input_is_refused(self, corpus, tmp_path, monkeypatch, capsys, link):
        def analysis(*args, **kwargs):
            raise AssertionError("build_report was called")

        monkeypatch.setattr(cli, "build_report", analysis)
        before = corpus.read_bytes()
        output = corpus if link == "same path" else tmp_path / "report.csv"
        if link == "symlink":
            output.symlink_to(corpus.name)
        elif link == "hard link":
            os.link(corpus, output)
        assert run(["--input", str(corpus), "--format", "csv", "--output", str(output)]) == EXIT_ERROR
        assert capsys.readouterr() == ("", f"error: --output {output} is the same file as --input\n")
        assert corpus.read_bytes() == before
        assert not output.is_symlink() or os.readlink(output) == corpus.name
        assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".reqsmell-")]

    @pytest.mark.parametrize("flag", ["--dictionaries", "--thresholds"])
    def test_output_that_is_a_rule_file_is_refused(self, corpus, tmp_path, capsys, flag):
        rules = tmp_path / "rules.txt"
        rules.write_bytes(b"[V]\nmay\n" if flag == "--dictionaries" else b"V >= 1\n")
        before = rules.read_bytes()
        assert run(["--input", str(corpus), flag, str(rules), "--output", str(rules)]) == EXIT_ERROR
        assert capsys.readouterr() == ("", f"error: --output {rules} is the same file as {flag}\n")
        assert rules.read_bytes() == before

    def test_output_with_the_contents_of_the_input_is_written(self, corpus, tmp_path, capsys):
        # Only the same file is refused, not a copy of it.
        copy = tmp_path / "copy.csv"
        copy.write_bytes(corpus.read_bytes())
        assert run(["--input", str(corpus), "--format", "csv", "--output", str(copy)]) == EXIT_OK
        assert copy.read_text(encoding="utf-8").startswith("id,V,")
        assert capsys.readouterr() == ("", "")

    def test_a_bad_output_fails_before_the_analysis(self, corpus, tmp_path, monkeypatch, capsys):
        def analysis(*args, **kwargs):
            raise AssertionError("build_report was called")

        monkeypatch.setattr(cli, "build_report", analysis)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "reports").mkdir()
        for output, message in (
            ("reports", "error: --output reports is a directory\n"),
            ("missing/r.txt", "error: [Errno 2] No such file or directory: 'missing/r.txt'\n"),
            ("", "error: [Errno 2] No such file or directory: ''\n"),
        ):
            assert run(["--input", str(corpus), "--format", "json", "--output", output]) == EXIT_ERROR
            assert capsys.readouterr() == ("", message)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.csv", "reports"]
        assert list((tmp_path / "reports").iterdir()) == []

    def test_quote_delimiter(self, corpus, capsys):
        assert run(["--input", str(corpus), "--delimiter", '"']) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: delimiter")
        assert "not found" not in err

    def test_field_over_parser_limit(self, tmp_path, capsys):
        path = tmp_path / "corpus.csv"
        path.write_text("ID,Text\nR1," + "x" * (csv.field_size_limit() + 1) + "\n", encoding="utf-8")
        assert run(["--input", str(path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: row 2:")
        assert err.count("\n") == 1

    def test_non_finite_threshold(self, corpus, tmp_path, capsys):
        rules = tmp_path / "nan.txt"
        rules.write_text("V >= nan\n", encoding="utf-8")
        code = run(["--input", str(corpus), "--thresholds", str(rules), "--fail-on-flagged"])
        assert code == EXIT_ERROR
        assert "finite" in capsys.readouterr().err

    def test_duplicate_ids(self, tmp_path, capsys):
        path = tmp_path / "corpus.csv"
        path.write_text("ID,Text\nR1,x\nR1,y\n", encoding="utf-8")
        assert run(["--input", str(path)]) == EXIT_ERROR
        assert "duplicate" in capsys.readouterr().err


def _keyword_dense_corpus(path, rows):
    """``rows`` requirements with about 17 matches each, so the JSON report
    is larger than the analysis that it renders."""
    text = (
        "R{0} may and can, or may see normal, adequate, effective and timely use; "
        "see note {0} and table {0}, for example, as appropriate, or may."
    )
    path.write_text(
        "ID,Text\n" + "".join(f'R{i},"{text.format(i)}"\n' for i in range(rows)),
        encoding="utf-8",
    )
    return path


class TestStreaming:
    """The report is written into its destination while it is rendered."""

    @pytest.mark.parametrize("fmt", REPORT_FORMATS)
    @pytest.mark.parametrize("case", ["corpus", "empty", "flagged"])
    def test_stdout_and_output_bytes_equal_render(self, tmp_path, capsysbinary, fmt, case):
        corpus = DATA / "sample_corpus.csv"
        if case == "empty":
            corpus = tmp_path / "empty.csv"
            corpus.write_text("ID,Text\n", encoding="utf-8")
        rules = DATA / "thresholds.txt"
        args = ["--input", str(corpus), "--thresholds", str(rules), "--format", fmt]
        if case == "flagged":
            args.append("--fail-on-flagged")
        expected_code = EXIT_FLAGGED if case == "flagged" else EXIT_OK

        mapping = ColumnMapping()
        requirements = load_requirements(corpus, mapping)
        report = build_report(
            requirements,
            AnalysisConfig.default(),
            load_threshold_file(rules),
            column_mapping=mapping,
        )
        expected = render(report, fmt)
        assert (report.summary.flagged_count > 0) == (case != "empty")

        assert run(args) == expected_code
        assert capsysbinary.readouterr().out == expected
        target = tmp_path / f"report.{fmt}"
        assert run([*args, "--output", str(target)]) == expected_code
        assert capsysbinary.readouterr().out == b""
        assert target.read_bytes() == expected

    def test_failed_write_leaves_no_temp_file_and_keeps_the_old_report(
        self, corpus, tmp_path, capsys, monkeypatch
    ):
        target = tmp_path / "report.json"
        target.write_bytes(b"previous report\n")
        real = reporting._requirement_json
        written = []

        def full_disk_after_the_first(*args):
            if written:
                raise OSError(errno.ENOSPC, "No space left on device")
            written.append(real(*args))
            return written[-1]

        monkeypatch.setattr(reporting, "_requirement_json", full_disk_after_the_first)
        code = run(["--input", str(corpus), "--format", "json", "--output", str(target)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: [Errno 28] No space left on device: '{target}'\n"
        assert len(written) == 1
        assert target.read_bytes() == b"previous report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.csv", "report.json"]

    def test_failed_rename_names_the_output_not_the_temp_file(self, corpus, tmp_path, capsys, monkeypatch):
        target = tmp_path / "report.csv"
        target.write_bytes(b"previous report\n")

        def cross_device(src, dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link", src, dst)

        monkeypatch.setattr(os, "replace", cross_device)
        code = run(["--input", str(corpus), "--format", "csv", "--output", str(target)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"error: [Errno {errno.EXDEV}] Invalid cross-device link: '{target}'\n"
        assert ".reqsmell-" not in err
        assert target.read_bytes() == b"previous report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.csv", "report.csv"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("fmt", REPORT_FORMATS)
    def test_failed_write_to_a_device_names_it(self, corpus, capsys, fmt):
        assert run(["--input", str(corpus), "--format", fmt, "--output", "/dev/full"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: [Errno 28] No space left on device: '/dev/full'\n"

    def test_json_output_peaks_below_the_written_file(self, tmp_path):
        corpus = _keyword_dense_corpus(tmp_path / "corpus.csv", 2000)
        target = tmp_path / "report.json"
        sample = str(DATA / "sample_corpus.csv")
        # The first run imports json and tempfile.
        assert run(["--input", sample, "--format", "json", "--output", str(target)]) == EXIT_OK
        tracemalloc.start()
        try:
            assert run(["--input", str(corpus), "--format", "json", "--output", str(target)]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = target.stat().st_size
        assert size > 5_000_000
        # The peak holds the requirements and their analysis; a report
        # rendered whole before it is written would double it.
        assert peak < size

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_output_dev_stdout_writes_into_the_pipe(self, corpus, tmp_path):
        # /dev/stdout is a link to the pipe that stdout is, whose own name
        # is no path: the report goes into the pipe, not a file beside it.
        plain = tmp_path / "plain.csv"
        assert run(["--input", str(corpus), "--format", "csv", "--output", str(plain)]) == EXIT_OK
        result = subprocess.run(
            [sys.executable, "-m", "reqsmell", "--input", str(corpus), "--format", "csv", "--output", "/dev/stdout"],
            env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
            capture_output=True,
        )
        assert (result.returncode, result.stderr) == (EXIT_OK, b"")
        assert result.stdout == plain.read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_output_dev_stdout_appends_to_the_file_stdout_has_open(self, corpus, tmp_path):
        # As after a shell's ">> log": the report goes through stdout, whose
        # append mode keeps what the file held, not over it through a rename.
        plain = tmp_path / "plain.csv"
        assert run(["--input", str(corpus), "--format", "csv", "--output", str(plain)]) == EXIT_OK
        log = tmp_path / "log.txt"
        log.write_bytes(b"old\n")
        with open(log, "ab") as stdout:
            result = subprocess.run(
                [sys.executable, "-m", "reqsmell", "--input", str(corpus), "--format", "csv",
                 "--output", "/dev/stdout"],
                env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
                stdout=stdout,
                stderr=subprocess.PIPE,
            )
        assert (result.returncode, result.stderr) == (EXIT_OK, b"")
        assert log.read_bytes() == b"old\n" + plain.read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/stderr"), reason="needs /dev/stderr")
    def test_output_dev_stderr_appends_to_the_file_stderr_has_open(self, corpus, tmp_path):
        # As after a shell's "2>> log": the report goes through stderr, as
        # it goes through stdout after ">> log".
        plain = tmp_path / "plain.csv"
        assert run(["--input", str(corpus), "--format", "csv", "--output", str(plain)]) == EXIT_OK
        log = tmp_path / "log.txt"
        log.write_bytes(b"old\n")
        with open(log, "ab") as stderr:
            result = subprocess.run(
                [sys.executable, "-m", "reqsmell", "--input", str(corpus), "--format", "csv",
                 "--output", "/dev/stderr"],
                env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
                stdout=subprocess.PIPE,
                stderr=stderr,
            )
        assert (result.returncode, result.stdout) == (EXIT_OK, b"")
        assert log.read_bytes() == b"old\n" + plain.read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_output_dev_stdout_writes_into_the_socket_stdout_is(self, corpus):
        # As under a service manager that hands stdout a socket, which open() refuses.
        args = [sys.executable, "-m", "reqsmell", "--input", str(corpus), "--format", "csv"]
        env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}
        plain = subprocess.run(args, env=env, capture_output=True, check=True).stdout
        writer, reader = socket.socketpair()
        with reader:
            with writer:
                process = subprocess.Popen([*args, "--output", "/dev/stdout"], env=env, stdout=writer,
                                           stderr=subprocess.PIPE)
            received = b"".join(iter(lambda: reader.recv(65536), b""))
            err = process.stderr.read()
            process.stderr.close()
        assert (process.wait(timeout=60), err) == (EXIT_OK, b"")
        assert received == plain

    @pytest.mark.parametrize("close", ["sys.stdout.close()", "sys.stdout = None", "os.close(1)"])
    def test_output_file_is_written_without_a_usable_stdout(self, corpus, tmp_path, close):
        plain = tmp_path / "plain.csv"
        assert run(["--input", str(corpus), "--format", "csv", "--output", str(plain)]) == EXIT_OK
        report = tmp_path / "report.csv"
        code = f"import os, sys; {close}; from reqsmell.cli import run; sys.exit(run(sys.argv[1:]))"
        result = subprocess.run(
            [sys.executable, "-c", code, "--input", str(corpus), "--format", "csv", "--output", str(report)],
            env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
            stderr=subprocess.PIPE,
        )
        assert (result.returncode, result.stderr) == (EXIT_OK, b"")
        assert report.read_bytes() == plain.read_bytes()

    def test_run_started_with_stdout_closed_is_one_error_line(self, corpus):
        # The shell closes fd 1 before the child starts, so Python sets sys.stdout to None.
        result = subprocess.run(
            ["sh", "-c", '"$0" -m reqsmell "$@" >&-', sys.executable, "--input", str(corpus), "--format", "csv"],
            env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
            stderr=subprocess.PIPE,
        )
        assert (result.returncode, result.stderr) == (
            EXIT_ERROR, b"error: stdout is closed: name a report file with --output\n"
        )

    @pytest.mark.parametrize("closed", [False, True], ids=["None", "closed stream"])
    def test_closed_stdout_fails_before_the_analysis(self, corpus, capsys, monkeypatch, closed):
        stdout = None
        if closed:
            stdout = io.TextIOWrapper(io.BytesIO())
            stdout.close()
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(cli, "build_report", lambda *args, **kwargs: pytest.fail("analysed"))
        assert run(["--input", str(corpus), "--format", "csv"]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: stdout is closed: name a report file with --output\n"

    def test_stdout_whose_descriptor_is_gone_fails_before_the_analysis(self, corpus):
        code = ("import os, sys; os.close(1); from reqsmell import cli; "
                "cli.build_report = lambda *args, **kwargs: sys.exit(99); sys.exit(cli.run(sys.argv[1:]))")
        result = subprocess.run(
            [sys.executable, "-c", code, "--input", str(corpus), "--format", "csv"],
            env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
            stderr=subprocess.PIPE,
        )
        assert (result.returncode, result.stderr) == (
            EXIT_ERROR, b"error: stdout is closed: name a report file with --output\n"
        )

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_broken_pipes_leave_no_descriptor_open(self, corpus, monkeypatch, capsys):
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            read_end, write_end = os.pipe()
            os.close(read_end)
            with open(write_end, "w", encoding="utf-8") as stdout:
                monkeypatch.setattr(sys, "stdout", stdout)
                assert run(["--input", str(corpus), "--format", "csv"]) == EXIT_ERROR
                monkeypatch.undo()
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n" * 3
        assert len(os.listdir("/proc/self/fd")) == before

    def test_reader_closing_stdout_early_is_one_error_line(self, tmp_path):
        corpus = _keyword_dense_corpus(tmp_path / "corpus.csv", 200)
        process = subprocess.Popen(
            [sys.executable, "-m", "reqsmell", "--input", str(corpus), "--format", "json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
        )
        # The report is larger than a pipe holds, so the writer is still
        # writing when the reader goes away.
        assert process.stdout.read(16) == b'{\n  "tool": "req'
        process.stdout.close()
        err = process.stderr.read().decode()
        process.stderr.close()
        assert process.wait(timeout=60) == EXIT_ERROR
        assert err == "error: [Errno 32] Broken pipe\n"


class TestRunMemory:
    """A CLI run frees each requirement once it is analysed."""

    def test_texts_die_while_rows_are_analysed(self, tmp_path, monkeypatch):
        text = (
            "The operator console shall confirm each alarm {0} within ten seconds of its display "
            "and the log shall keep the alarm with its source and its time of day."
        )
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("ID,Text\n" + "".join(f"R{i},{text.format(i)}\n" for i in range(3000)), encoding="utf-8")
        target = tmp_path / "report.csv"
        sample = str(DATA / "sample_corpus.csv")
        # The first run imports csv and tempfile.
        assert run(["--input", sample, "--format", "csv", "--output", str(target)]) == EXIT_OK
        real = cli.load_requirements
        loaded = []

        def load_then_reset_peak(*args):
            before = tracemalloc.get_traced_memory()[0]
            requirements = real(*args)
            after = tracemalloc.get_traced_memory()[0]
            loaded.append((after, after - before))  # the heap now, and what the list holds
            tracemalloc.reset_peak()
            return requirements

        monkeypatch.setattr(cli, "load_requirements", load_then_reset_peak)
        tracemalloc.start()
        try:
            assert run(["--input", str(corpus), "--format", "csv", "--output", str(target)]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        [(after_load, requirements_size)] = loaded
        assert requirements_size > 1_000_000
        # The entries take about as much as the requirements; a run that kept
        # every text alive until the report is built would hold both.
        assert peak - after_load < requirements_size / 2


class TestWarnings:
    def test_empty_corpus_warns_but_succeeds(self, tmp_path, capsys):
        path = tmp_path / "corpus.csv"
        path.write_text("ID,Text\n", encoding="utf-8")
        assert run(["--input", str(path), "--format", "json"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "warning: no requirements found (header-only file)\n"
        payload = json.loads(captured.out)
        assert payload["summary"]["requirement_count"] == 0
        assert payload["requirements"] == []

    def test_blank_text_row_warns_in_report_not_stderr(self, tmp_path, capsys):
        path = tmp_path / "corpus.csv"
        path.write_text("ID,Text\nR1,\n", encoding="utf-8")
        assert run(["--input", str(path), "--format", "json"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert payload["requirements"][0]["warnings"] == ["requirement text contains no words"]


class TestModuleInvocation:
    def test_python_dash_m(self, corpus):
        result = subprocess.run(
            [sys.executable, "-m", "reqsmell", "--input", str(corpus), "--format", "csv"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == "id,V,NR1,NR2,O,S,W,NC,NW,ARI,flags"

    def test_import_creates_classes_without_compiling(self):
        # dataclasses and the modules it imports cost more than the rest of
        # the package, and a string annotation of a typing.NamedTuple field
        # is compiled into a typing.ForwardRef; the value types are
        # collections.namedtuple classes, which need neither. Only the
        # import system may compile, and only the package's source files.
        # csv, datetime, json, tempfile and unicodedata are imported only
        # by the runs that use them.
        code = textwrap.dedent("""
            import builtins, sys
            compiled = []
            real_compile = builtins.compile
            def compile(source, filename, *args, **kwargs):
                compiled.append(str(filename))
                return real_compile(source, filename, *args, **kwargs)
            builtins.compile = compile
            import reqsmell.cli
            print(sorted({"dataclasses", "inspect", "ast", "dis"} & set(sys.modules)))
            print([name for name in compiled if not name.endswith(".py")])
            print(sorted({"datetime", "json", "tempfile"} & set(sys.modules)))
        """)
        result = subprocess.run(
            [sys.executable, "-S", "-c", code],
            env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n[]\n[]\n"

    def test_ascii_analysis_loads_no_csv_unicodedata_or_text_pattern(self):
        # A fresh process that analyses ASCII text without joiners needs
        # neither csv nor unicodedata, nor any of the tokenizer's regexes
        # (argparse's own gettext pattern aside). Non-ASCII text with a
        # joiner then compiles them on first use and gives the vector of an
        # in-process call.
        code = textwrap.dedent("""
            import re, sys
            callers = []
            real_compile = re.compile
            def compile(pattern, *args, **kwargs):
                callers.append(sys._getframe(1).f_code.co_filename)
                return real_compile(pattern, *args, **kwargs)
            re.compile = compile
            import reqsmell.cli
            from reqsmell import AnalysisConfig, analyze_text, builtin_dictionaries
            config = AnalysisConfig.from_dictionaries(builtin_dictionaries())
            analyze_text("The system shall respond within 2 seconds if possible.", config)
            print(sorted({"csv", "unicodedata"} & set(sys.modules)))
            print([name for name in callers if "reqsmell" in name])
            vector = analyze_text(sys.argv[1], config)
            print(any("reqsmell" in name for name in callers))
            print(repr(tuple(vector)))
        """)
        text = "Die Größe – don't exceed 2.5 °C."
        result = subprocess.run(
            [sys.executable, "-S", "-c", code, text],
            env={**os.environ, "PYTHONPATH": PACKAGE_ROOT, "PYTHONIOENCODING": "utf-8"},
            capture_output=True,
            text=True,
            encoding="utf-8",
        )
        assert result.returncode == 0, result.stderr
        expected = tuple(analyze_text(text, AnalysisConfig.default()))
        assert result.stdout == f"[]\n[]\nTrue\n{expected!r}\n"

    def test_clean_interpreter_analysis_loads_neither_typing_nor_re(self):
        # Without site, a fresh interpreter has loaded none of functools, re
        # and typing, and together they cost more than the package and its
        # built-in config. ASCII text compiles no pattern, so it needs none of
        # them; text that does loads re (which imports functools) on first
        # use and gives the vector of an in-process call. The CLI needs re
        # through argparse, but never typing.
        code = textwrap.dedent("""
            import sys
            from reqsmell import AnalysisConfig, analyze_text, builtin_dictionaries
            config = AnalysisConfig.from_dictionaries(builtin_dictionaries())
            analyze_text("The system shall respond within 2 seconds if possible.", config)
            print(sorted({"functools", "re", "typing"} & set(sys.modules)))
            vector = analyze_text(sys.argv[1], config)
            print(sorted({"functools", "re", "typing"} & set(sys.modules)))
            print(repr(tuple(vector)))
            import reqsmell.cli
            print(sorted({"functools", "re", "typing"} & set(sys.modules)))
        """)
        text = "Die Größe – don't exceed 2.5 °C."
        result = subprocess.run(
            [sys.executable, "-S", "-c", code, text],
            env={**os.environ, "PYTHONPATH": PACKAGE_ROOT, "PYTHONIOENCODING": "utf-8"},
            capture_output=True,
            text=True,
            encoding="utf-8",
        )
        assert result.returncode == 0, result.stderr
        expected = tuple(analyze_text(text, AnalysisConfig.default()))
        assert result.stdout == f"[]\n['functools', 're']\n{expected!r}\n['functools', 're']\n"

    def test_text_analysis_loads_neither_ingestion_nor_reporting(self):
        # The package loads a submodule on the first use of one of its
        # names, so a caller that only analyses text never loads the two
        # modules that read files and write reports.
        code = textwrap.dedent("""
            import sys
            import reqsmell
            config = reqsmell.AnalysisConfig.from_dictionaries(reqsmell.builtin_dictionaries())
            reqsmell.analyze_text("The system may fail based on some conditions.", config)
            print(sorted({"reqsmell.ingestion", "reqsmell.reporting"} & set(sys.modules)))
            from reqsmell import build_report
            print(build_report is sys.modules["reqsmell.reporting"].build_report)
        """)
        result = subprocess.run(
            [sys.executable, "-S", "-c", code],
            env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\nTrue\n"

    def test_reporting_loads_no_ingestion(self):
        # A report only carries the column mapping it is given, so building
        # one needs no module that reads files.
        code = "import sys, reqsmell.reporting; print('reqsmell.ingestion' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-S", "-c", code],
            env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    def test_bare_import_binds_the_submodules(self):
        code = textwrap.dedent("""
            import reqsmell
            for name in ("dictionaries", "errors", "ingestion", "metrics", "reporting", "text"):
                print(getattr(reqsmell, name).__name__)
            print(reqsmell.reporting.write_report.__module__)
        """)
        result = subprocess.run(
            [sys.executable, "-S", "-c", code],
            env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        modules = ["dictionaries", "errors", "ingestion", "metrics", "reporting", "text"]
        assert result.stdout.split() == [f"reqsmell.{name}" for name in modules] + ["reqsmell.reporting"]

    def test_every_public_name_is_its_submodules_object(self):
        origin = {
            "dictionaries": ["DICTIONARY_METRICS", "Dictionary", "PhraseMatcher", "PhrasePattern",
                             "builtin_dictionaries", "load_dictionary_file"],
            "errors": ["CorpusError", "MalformedFileError", "ReqsmellError"],
            "ingestion": ["ColumnMapping", "Requirement", "load_requirements"],
            "metrics": ["ALL_METRICS", "AnalysisConfig", "MetricVector", "analyze_text"],
            "reporting": ["AnalysisReport", "RequirementEntry", "ThresholdRule", "build_report",
                          "load_threshold_file", "parse_threshold_rules", "render"],
            "text": ["normalize"],
        }
        assert sorted(name for names in origin.values() for name in names) == reqsmell.__all__
        for module, names in origin.items():
            for name in names:
                assert getattr(reqsmell, name) is getattr(sys.modules[f"reqsmell.{module}"], name), name
            assert getattr(reqsmell, module) is sys.modules[f"reqsmell.{module}"]

    def test_dir_lists_every_public_name(self):
        assert set(reqsmell.__all__) <= set(dir(reqsmell))
        assert {"__version__", "reporting", "text"} <= set(dir(reqsmell))

    @pytest.mark.parametrize("name", ["no_such_name", "scan"])
    def test_an_unknown_name_is_an_attribute_error(self, name):
        # scan is defined by the text submodule but is not public.
        with pytest.raises(AttributeError, match=f"^module 'reqsmell' has no attribute '{name}'$"):
            getattr(reqsmell, name)
        with pytest.raises(ImportError):
            exec(f"from reqsmell import {name}", {})

    def test_cyclic_garbage_does_not_grow_with_the_corpus(self, tmp_path):
        # A run may leave a small, fixed amount of cyclic garbage (from
        # argparse and json) but must create no cycles that grow with the
        # input, so a 20x corpus must leave no more than the sample one.
        sample = Path(__file__).parent / "data" / "sample_corpus.csv"
        header, *rows = sample.read_text(encoding="utf-8").splitlines(keepends=True)
        large = tmp_path / "large.csv"
        large.write_text(
            header + "".join(f"C{copy}-{row}" for copy in range(20) for row in rows),
            encoding="utf-8",
        )
        code = textwrap.dedent("""
            import gc, sys
            from reqsmell.cli import run
            def garbage(path):
                gc.collect()
                assert run(["--input", path, "--format", "json", "--output", sys.argv[3]]) == 0
                return gc.collect()
            gc.disable()
            garbage(sys.argv[1])  # the first run imports json and tempfile
            print(garbage(sys.argv[1]), garbage(sys.argv[2]))
        """)
        result = subprocess.run(
            [sys.executable, "-c", code, str(sample), str(large), str(tmp_path / "out.json")],
            env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        small_count, large_count = map(int, result.stdout.split())
        assert small_count == large_count
        assert json.loads((tmp_path / "out.json").read_text())["summary"]["requirement_count"] == 200

    def test_version_matches_pyproject(self):
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", pyproject.read_text(), re.M | re.S)
        version = re.search(r'^version\s*=\s*"([^"]+)"', project.group(1), re.M)
        assert version.group(1) == __version__
