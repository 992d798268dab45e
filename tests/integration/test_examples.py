"""Smoke tests: the example scripts run and produce their key output.

The slow examples (paper_example, large_scale_study) are exercised through
their main() with monkeypatched sys.argv where applicable; the quick ones
run fully.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, capsys, argv=None) -> str:
    old_argv = sys.argv
    sys.argv = [name] + (argv or [])
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "Stage I" in out
        assert "phi_1" in out
        assert "Stage II" in out

    def test_timestepped(self, capsys):
        out = run_example("timestepped_application.py", capsys)
        assert "AWF" in out
        assert "step 0" in out

    @pytest.mark.slow
    def test_dls_comparison(self, capsys):
        out = run_example("dls_comparison.py", capsys)
        assert "Perturbation" in out
        assert "STATIC" in out

    @pytest.mark.slow
    def test_availability_tolerance(self, capsys):
        out = run_example("availability_tolerance.py", capsys)
        assert "rho_2" in out

    @pytest.mark.slow
    def test_paper_example(self, capsys):
        out = run_example("paper_example.py", capsys, ["--replications", "3"])
        assert "Table IV" in out
        assert "Table VI" in out
        assert "System robustness" in out

    @pytest.mark.slow
    def test_large_scale_study(self, capsys):
        out = run_example("large_scale_study.py", capsys)
        assert "Stage I on the large instance" in out
        assert "tolerable cases" in out

    @pytest.mark.slow
    def test_resource_manager(self, capsys):
        out = run_example("resource_manager.py", capsys)
        assert "[map]" in out
        assert "[assess]" in out
        assert "stream makespan" in out
