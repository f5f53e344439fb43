"""The outcome table tool, checked on its two smallest corpora.

Each test checks an edited copy of tests/outcomes.tsv through
outcomes.main, with the tool's corpora cut down to one: rare, 8 runs
that all end strong, or identity, whose rows span several classes.
"""

import outcomes

COMMITTED = outcomes.TABLE


def _copy(tmp_path, monkeypatch, corpus):
    """The table's lines, in a copy that outcomes.main checks against
    the one corpus; write them back with outcomes.write after an edit."""
    copy = tmp_path / "outcomes.tsv"
    monkeypatch.setattr(outcomes, "TABLE", copy)
    monkeypatch.setattr(outcomes, "CORPORA", {corpus: outcomes.CORPORA[corpus]})
    lines = outcomes.read(COMMITTED)
    outcomes.write(lines, copy)
    return lines


def test_the_table_reads_back_as_written_and_checks_clean(
    tmp_path, monkeypatch, capsys
):
    _copy(tmp_path, monkeypatch, "rare")
    assert outcomes.TABLE.read_text() == COMMITTED.read_text()
    assert outcomes.main([]) == 0
    assert capsys.readouterr().out == "outcomes.tsv: nothing moved\n"


def test_a_check_names_each_moved_run_old_to_new(tmp_path, monkeypatch, capsys):
    table = _copy(tmp_path, monkeypatch, "identity")
    over, detail = table[("identity", "153", "-")]
    assert over == "silent:over-count"
    table[("identity", "153", "-")] = ("silent:under-count", detail)
    del table[("identity", "164", "-")]
    outcomes.write(table, outcomes.TABLE)
    assert outcomes.main([]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "silent:under-count -> silent:over-count (1)",
        f"  identity 153 -: {detail} -> {detail}",
        "strong -> silent:over-count (1)",
        "  identity 164 -: - -> exec 24 hold=127/144 ledger=3/16",
    ]


def test_a_check_names_the_corpus_whose_hash_moved(tmp_path, monkeypatch, capsys):
    table = _copy(tmp_path, monkeypatch, "rare")
    _, digest = table[("rare", "sha256", "-")]
    table[("rare", "sha256", "-")] = ("-", "0" * 64)
    outcomes.write(table, outcomes.TABLE)
    assert outcomes.main([]) == 1
    assert capsys.readouterr().out == f"rare sha256 - moved: {'0' * 64} -> {digest}\n"
