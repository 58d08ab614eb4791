"""Reporter schema tests: text/JSON golden-file round-trips.

The goldens in ``tests/data/`` pin the exact reports the seeded fixture
produces.  If a rule message or report field changes deliberately,
regenerate them:

    PYTHONPATH=src python - <<'EOF'
    import pathlib
    from repro.lint import run_lint, render
    res = run_lint('tests/data/lint_fixture.py',
                   include_project_rules=False)
    for fmt, name in (("text", "lint_fixture.expected.txt"),
                      ("json", "lint_fixture.expected.json")):
        pathlib.Path("tests/data", name).write_text(
            render(res, fmt) + "\n", encoding="utf-8")
    EOF
"""

import json
import pathlib

import pytest

from repro.lint import RULES, render, render_json, render_text, run_lint

DATA = pathlib.Path(__file__).resolve().parent / "data"
FIXTURE = DATA / "lint_fixture.py"


@pytest.fixture(scope="module")
def fixture_result():
    return run_lint(FIXTURE, include_project_rules=False)


def _golden(name):
    return (DATA / name).read_text(encoding="utf-8")


class TestGoldenFiles:
    def test_text_golden(self, fixture_result):
        assert render_text(fixture_result) + "\n" \
            == _golden("lint_fixture.expected.txt")

    def test_json_golden_round_trip(self, fixture_result):
        rendered = render_json(fixture_result)
        assert rendered + "\n" == _golden("lint_fixture.expected.json")
        # Round-trip: the document is valid JSON and re-serializes to
        # itself (stable key order, no float drift).
        assert json.dumps(json.loads(rendered), indent=2) == rendered


class TestJsonSchema:
    def test_document_shape(self, fixture_result):
        doc = json.loads(render_json(fixture_result))
        assert set(doc) == {"tool", "rules", "summary", "findings",
                            "suppressed"}
        assert doc["tool"]["name"] == "repro.lint"
        assert doc["summary"]["files_scanned"] == 1
        assert doc["summary"]["findings"] == len(doc["findings"])
        assert doc["summary"]["suppressed"] == len(doc["suppressed"])

    def test_finding_rows_complete(self, fixture_result):
        doc = json.loads(render_json(fixture_result))
        for row in doc["findings"] + doc["suppressed"]:
            assert set(row) == {"rule", "path", "line", "severity",
                                "category", "message", "snippet"}
            assert row["path"] == "lint_fixture.py"
            assert row["line"] >= 1

    def test_rule_catalog_covers_all_registered_rules(self, fixture_result):
        doc = json.loads(render_json(fixture_result))
        ids = [row["id"] for row in doc["rules"]]
        assert ids == sorted(ids)
        assert set(ids) == {"RL000", *RULES}
        assert all(row["description"] for row in doc["rules"])


class TestRenderDispatch:
    def test_named_formats(self, fixture_result):
        assert render(fixture_result, "text") \
            == render_text(fixture_result)
        assert render(fixture_result, "json") \
            == render_json(fixture_result)

    def test_unknown_format_rejected(self, fixture_result):
        with pytest.raises(ValueError, match="unknown report format"):
            render(fixture_result, "xml")

    def test_clean_result_text_mentions_rules_run(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("X = 1\n", encoding="utf-8")
        result = run_lint(clean, include_project_rules=False)
        text = render_text(result)
        assert "lint clean" in text
        assert "RL101" in text
