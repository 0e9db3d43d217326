"""Figure-reproduction harness tests at tiny scale.

These run the ``FIGURES`` registry's defs through ``run_figure`` end to end
(tiny topologies, few rounds; a non-default grid is an axis override or a
``dataclasses.replace`` on the def) — the real reproductions live in
``benchmarks/``.  Every figure family also carries the sha256 of its
rendered table, recorded at the last commit whose figures wired and looped
seeds by hand: the one def → spec → ``run_scenario`` → ``repeat`` path must
print the same bytes.
"""

import dataclasses
import hashlib

import pytest

from repro.core.eviction import FixedEviction
from repro.experiments import figures
from repro.experiments.figures import FIGURES, Scale, run_figure
from repro.experiments.reporting import format_percent, format_round, format_table
from repro.membership.service import MembershipConfig

TINY = Scale(n_nodes=100, rounds=25, repetitions=1, view_ratio=0.1, base_seed=5)
#: Two seeds, so the pins cover the seed sweep's mean and ordering too.
PAIR = Scale(n_nodes=60, rounds=12, repetitions=2, view_ratio=0.1, base_seed=7)


def _sha256(result) -> str:
    return hashlib.sha256(result.render().encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def memo():
    """One seed-mean memo shared by the module's TINY figures."""
    return {}


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "long header"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long header" in lines[1]
        assert len(lines) == 5  # title + header + separator + 2 rows

    def test_format_percent(self):
        assert format_percent(12.345) == "12.3%"
        assert format_percent(None) == "—"

    def test_format_round(self):
        assert format_round(17) == "17"
        assert format_round(-1) == "n/r"
        assert format_round(None) == "n/r"


class TestFigure3:
    def test_rows_and_render(self, memo):
        result = run_figure(FIGURES["fig3"], TINY, memo, byzantine_fraction=(0.10, 0.30))
        assert len(result.rows) == 2
        rendered = result.render()
        assert "Fig. 3" in rendered
        assert "10%" in rendered
        pollution = [float(value) for value in result.column("byz-in-views %")]
        assert all(0.0 <= value <= 100.0 for value in pollution)
        assert _sha256(result) == (
            "860c2afae48c1ae0f80ec9f7c980907ec28e760d2ba3c327c0b507fcdeef6fcc"
        )

    def test_baseline_cache_reuses_runs(self, monkeypatch):
        memo = {}
        result = run_figure(FIGURES["fig3"], PAIR, memo, byzantine_fraction=(0.10, 0.30))
        assert _sha256(result) == (
            "9f0623923fa0fbbfdeb9b0b9b70b5446db5c8e74ab39878626a63771b54c4bfb"
        )

        def no_run(*args, **kwargs):
            raise AssertionError("a memoised cell was run again")

        # A second figure over the same Brahms cells runs nothing.
        monkeypatch.setattr(figures, "run_scenario", no_run)
        again = run_figure(FIGURES["fig3"], PAIR, memo, byzantine_fraction=(0.10,))
        assert again.rows == result.rows[:1]

    def test_a_memo_filled_at_another_scale_changes_nothing(self, memo):
        """The memo is keyed by each cell's spec and seeds, so one filled at
        TINY answers nothing at PAIR: a figure sharing it prints the bytes
        of a fresh run, baseline included."""
        run_figure(FIGURES["fig3"], TINY, memo, byzantine_fraction=(0.10,))
        f = {"byzantine_fraction": (0.10,)}
        for figure, axes in ((FIGURES["fig3"], f),
                             (FIGURES["fig7"], {**f, "trusted_fraction": (0.10,)})):
            shared = run_figure(figure, PAIR, memo, **axes)
            assert shared.render() == run_figure(figure, PAIR, **axes).render()

    def test_a_cell_runs_on_the_shard_engine(self):
        """The figure runner has no engine of its own: a cell whose spec
        says ``kind="shard"`` goes down the same ``run_figure`` → ``repeat``
        road, and the partition count is invisible in its numbers."""
        import math

        def cell(shards):
            memo = {}
            run_figure(FIGURES["fig3"], PAIR, memo, byzantine_fraction=(0.10,),
                       adversary_strategy=("balanced",), kind=("shard",), shards=(shards,))
            (values,) = memo.values()
            return values

        sharded = cell(4)
        assert all(math.isfinite(value) for value in sharded)
        assert 0.0 < sharded[0] < 1.0
        assert sharded == cell(1)


class TestTable1:
    def test_all_five_functions_reported(self):
        result = run_figure(FIGURES["table1"], TINY, rounds=(12,))
        assert len(result.rows) == 5
        for row in result.rows:
            standard = float(str(row[1]).replace(",", ""))
            sgx = float(str(row[2]).replace(",", ""))
            assert sgx > standard
        assert _sha256(result) == (
            "ad2b2204ad0121082594622582ec2c9b7fe0264ecf1f019e8d6173580b93ad2e"
        )


class TestEvictionFigure:
    def test_grid_rows(self, memo):
        result = run_figure(
            dataclasses.replace(FIGURES["fig7"], title="test"), TINY, memo,
            byzantine_fraction=(0.10,), trusted_fraction=(0.10,),
        )
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row[0] == "10%" and row[1] == "10%"
        float(row[2])  # improvement parses
        assert _sha256(result) == (
            "ddb92fabf33a92f446ff2c0725fba19ab9a9bb549cd43362374fea4363fb39a6"
        )


class TestIdentificationFigure:
    def test_metrics_in_unit_interval(self):
        result = run_figure(
            dataclasses.replace(FIGURES["fig10"], title="test"), TINY,
            byzantine_fraction=(0.20,), eviction=(FixedEviction(1.0),), trusted_fraction=(0.2,),
        )
        assert len(result.rows) == 1
        _policy, _t, precision, recall, f1 = result.rows[0]
        for value in (precision, recall, f1):
            assert 0.0 <= float(value) <= 1.0
        assert _sha256(result) == (
            "e368a6c5e1218c98800aaa7d415ea49ce4f7a1747eb5739c0a7d9d0f8b37d353"
        )


class TestFigure13:
    def test_rows_cover_grid(self, memo):
        result = run_figure(
            FIGURES["fig13"], TINY, memo, trusted_fraction=(0.05,),
            poisoned_fraction=(0.0, 0.10), byzantine_fraction=(0.10,),
        )
        assert len(result.rows) == 2
        assert {row[1] for row in result.rows} == {"0%", "10%"}
        assert _sha256(result) == (
            "44236fa8808886825cc00221c684a60f84b9f1a496be4962cde037ec6ee281fb"
        )


class TestMembershipChurnFigure:
    def test_churn_fires_and_renders_the_pinned_table(self):
        scale = Scale(n_nodes=40, rounds=12, repetitions=2, view_ratio=0.1, base_seed=5)
        result = run_figure(
            FIGURES["churn"], scale, trusted_fraction=(0.1,),
            membership=(MembershipConfig(join_rate=0.5, leave_rate=0.5),),
        )
        (row,) = result.rows
        # The mechanism under test fired: the trusted set did churn.
        assert float(row[3]) + float(row[4]) > 0
        assert float(row[2]) > 0  # and every leave re-keyed the group
        assert _sha256(result) == (
            "ee25d7ebccf26ef19717059e5ff129f0adc65faea7e225b42bd4779e5f1b42dd"
        )


class TestStragglerFigure:
    def test_stragglers_run_late_and_render_the_pinned_table(self):
        scale = Scale(n_nodes=60, rounds=12, repetitions=1, view_ratio=0.1, base_seed=5)
        result = run_figure(FIGURES["straggler"], scale, straggler=(None, "0.2:8"))
        assert [row[0] for row in result.rows] == ["none", "20% @ 8x"]
        healthy, slowed = result.rows
        # Slowed nodes complete fewer cycles, and more of them late.
        assert int(slowed[2]) < int(healthy[2])
        assert float(slowed[3]) > float(healthy[3])
        assert _sha256(result) == (
            "f3f1d0e11739fb48f548e67cfefde9c9d196397146f25377a710bf90e2de0b44"
        )
