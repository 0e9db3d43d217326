"""CI smoke for the paper-scale entry point (``examples/full_scale.py``).

The script documented the N = 10,000 configuration for years of PRs without
ever being executed in CI; the perf layer makes a reduced-N run cheap
enough to exercise the whole path — argument parsing, spec derivation,
build, run, and the metrics print-out.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

_SCRIPT = pathlib.Path(__file__).parent.parent / "examples" / "full_scale.py"


@pytest.fixture(scope="module")
def full_scale():
    spec = importlib.util.spec_from_file_location("full_scale_example", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFullScaleExample:
    def test_dry_run_prints_derived_parameters(self, full_scale, capsys):
        full_scale.main([])
        out = capsys.readouterr().out
        assert "N                = 10,000" in out
        assert "Dry run only" in out
        # The stale framing must not come back.
        assert "hours" not in out

    def test_reduced_n_smoke_run(self, full_scale, capsys):
        full_scale.main(["--run", "--nodes", "500", "--rounds", "4"])
        out = capsys.readouterr().out
        assert "N                = 500" in out
        assert "resilience (Byz IDs in correct views):" in out
        assert "discovery round:" in out
