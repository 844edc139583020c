"""Documentation guards: README code blocks run, inventory claims hold."""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def python_blocks(markdown: str) -> list[str]:
    return re.findall(r"```python\n(.*?)```", markdown, flags=re.DOTALL)


class TestReadme:
    @pytest.fixture(scope="class")
    def readme(self):
        return (REPO / "README.md").read_text()

    def test_python_examples_execute(self, readme):
        blocks = python_blocks(readme)
        assert blocks, "README should contain python examples"
        for block in blocks:
            exec(compile(block, "<README>", "exec"), {})

    def test_mentions_all_example_scripts(self, readme):
        scripts = sorted((REPO / "examples").glob("*.py"))
        assert scripts
        for script in scripts:
            path = f"examples/{script.name}"
            assert path in readme, f"README does not name {path}"

    def test_bench_table_lists_every_bench_file(self, readme):
        benches = {
            p.name
            for p in (REPO / "benchmarks").glob("bench_*.py")
            if not p.name.startswith("bench_ext")
            and "ablation" not in p.name
            and "fig3_14" not in p.name
        }
        for bench in benches:
            assert bench in readme, f"README bench table is missing {bench}"


class TestDesignDoc:
    @pytest.fixture(scope="class")
    def design(self):
        return (REPO / "DESIGN.md").read_text()

    def test_per_experiment_index_covers_eval_figures(self, design):
        for artifact in ("Table 1", "Fig 4", "Fig 5", "Fig 6", "Fig 7",
                         "Fig 8", "Fig 9", "Table 2", "Fig 11", "Fig 12",
                         "Fig 13", "Fig 15"):
            assert artifact in design, f"DESIGN.md index is missing {artifact}"

    def test_substitutions_documented(self, design):
        assert "YouTube" in design
        assert "scikit-learn" in design


class TestExperimentsDoc:
    def test_every_results_file_documented(self):
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        for keyword in ("Table 1", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7",
                        "Fig. 8", "Fig. 9", "Tables 3-4", "Fig. 11",
                        "Fig. 12", "Fig. 13", "Known deviations"):
            assert keyword in experiments, f"EXPERIMENTS.md missing {keyword}"


class TestPythonReferences:
    """Every backticked ``*.py`` path in the docs names a file that exists."""

    ROOTS = ("src/repro", "benchmarks", "tests", "examples", "perfbench")
    DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

    def python_files(self) -> set[str]:
        files = {p.name for p in REPO.glob("*.py")}
        for root in self.ROOTS:
            files |= {
                p.relative_to(REPO).as_posix() for p in (REPO / root).rglob("*.py")
            }
        return files

    def test_referenced_python_files_exist(self):
        files = self.python_files()
        docs = [REPO / name for name in self.DOCS]
        docs += sorted((REPO / "docs").glob("*.md"))
        missing = []
        for doc in docs:
            for span in re.findall(r"`([^`\n]+)`", doc.read_text()):
                # A reference may be relative to any root (``core/fcfr.py``,
                # ``repro/cli.py``) or a bare file name, so it resolves when
                # it is a path suffix of some file.
                for ref in re.findall(r"[\w./-]*\w\.py\b", span):
                    if not any(f == ref or f.endswith("/" + ref) for f in files):
                        missing.append(f"{doc.name}: {ref}")
        assert not missing, f"docs name missing python files: {missing}"
