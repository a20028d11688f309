"""Regenerate Table I: the 32-microbenchmark census and verdicts."""

from repro.experiments.table1 import run_table1


def test_table1():
    result = run_table1()
    print()
    print(result.render())
    # Census matches the paper exactly.
    assert result.census[-1] == ["total", 18, 14]
    # Every racey micro caught, every non-racey micro silent.
    assert result.all_ok
