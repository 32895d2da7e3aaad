"""Markdown report generator."""

from repro.experiments import EXPERIMENTS
from repro.experiments.report import generate_markdown, write_report


class TestReportGenerator:
    SUBSET = tuple(e for e in EXPERIMENTS if e.id in ("fig2", "table4"))

    def test_covers_all_paper_artefacts(self):
        titles = [e.title for e in EXPERIMENTS]
        for artefact in ("Figure 1", "Figure 2", "Table 1", "Table 2",
                         "Figure 6", "Table 3", "Figure 8", "Figure 9",
                         "Table 4"):
            assert any(artefact in t for t in titles), artefact

    def test_markdown_structure(self):
        md = generate_markdown(self.SUBSET, include_timings=False)
        assert md.startswith("# ConvMeter evaluation report")
        assert "## Figure 2" in md
        assert "## Table 4" in md
        assert md.count("```") == 2 * len(self.SUBSET)

    def test_timings_included_by_default(self):
        md = generate_markdown(self.SUBSET)
        assert "regenerated in" in md

    def test_write_report(self, tmp_path):
        path = tmp_path / "report.md"
        write_report(path, experiments=self.SUBSET, include_timings=False)
        assert path.read_text().startswith("# ConvMeter evaluation report")
