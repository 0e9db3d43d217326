"""Fig. 13 — view-poisoned trusted-node injection.

Paper shape: at small t and moderate f, injecting poisoned trusted nodes
does not significantly harm resilience (and can even help — the injected
nodes run correct code and end up reinforcing the trusted population);
the benefit disappears as t grows.
"""

from conftest import record_report

from repro.experiments.figures import FIGURES, run_figure

T_VALUES = (0.02, 0.10)
POISON_VALUES = (0.0, 0.05, 0.20)
F_VALUES = (0.10, 0.30)


def test_fig13_poisoned_injection(benchmark, bench_scale, memo):
    result = benchmark.pedantic(
        lambda: run_figure(
            FIGURES["fig13"], bench_scale, memo,
            trusted_fraction=T_VALUES,
            poisoned_fraction=POISON_VALUES,
            byzantine_fraction=F_VALUES,
        ),
        rounds=1,
        iterations=1,
    )
    record_report(result.render())

    def improvement(t, poisoned, f):
        for row in result.rows:
            if row[0] == t and row[1] == poisoned and row[2] == f:
                return float(row[3])
        raise AssertionError("row missing")

    # Injection at low f must not collapse resilience vs the no-attack line.
    baseline = improvement("2%", "0%", "10%")
    attacked = improvement("2%", "20%", "10%")
    assert attacked > baseline - 15.0  # no catastrophic harm
