"""Behaviour pin: traces, reports and safety failures stay byte-identical.

tests/outcomes.py owns two small corpora for tier-1.  identity is the
goldens at a few seeds, a fixed fuzz corpus, and both deliberate
protocol mutations run through the CLI, with their exit code, stderr and
trace file.  rare is mixed runs that take rare surrender paths.  Each
test recomputes one corpus and requires its lines to equal those of
tests/outcomes.tsv: the sha256 of every trace and report, the count of
each outcome class, and the row of each run that does not end strong.
A refactor leaves them unchanged.  A change that alters behaviour on
purpose rewrites the table with `tests/outcomes.py --update` and says
why.
"""

import outcomes


def _moved(corpus):
    return outcomes.moved(outcomes.read(outcomes.TABLE), outcomes.compute(corpus))


def test_traces_reports_and_failures_are_unchanged():
    assert _moved("identity") == []


def test_rare_surrender_paths_are_unchanged():
    assert _moved("rare") == []
