"""One test per entry of ``figures.FIGURES``, run from the repository root:
``python -m pytest benchmarks/bench_*.py -q -p no:cacheprovider``."""

import pytest

from figures import FIGURES, run_figure


@pytest.mark.parametrize("figure", FIGURES, ids=lambda figure: figure.name)
def test_figure(figure):
    run_figure(figure)
