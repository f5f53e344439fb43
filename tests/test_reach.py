"""Every statement of protocol.py and engine.py is reached, or pinned.

tests/reach.py runs its fixed corpus under a line tracer and names each
statement that no run reaches.  That set must be exactly UNREACHED: a
new path nothing exercises is reached by a pinned scenario or deleted,
and a pinned one that a run now reaches leaves the pin.
"""

import textwrap

import reach


def test_the_fixed_corpus_leaves_only_the_pinned_statements_unreached():
    assert reach.unreached(reach.fixed_corpus()) == reach.UNREACHED


def test_statements_are_named_by_function_blocks_and_text(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(textwrap.dedent('''\
        def f(x):
            """Docstring."""
            if x:
                return 1
            elif x is None:
                return 2
            else:
                return 1
            try:
                y = (
                    x + 1
                )
            except ValueError:
                return 1

        class C:
            def g(self):
                return 1
                return 1
    '''))
    assert reach.statements(src) == {
        "f | if x:": frozenset({3}),
        "f | if x: > return 1": frozenset({4}),
        "f | elif x is None:": frozenset({5}),
        "f | elif x is None: > return 2": frozenset({6}),
        "f | else: > return 1": frozenset({8}),
        "f | try: > y = (": frozenset({10, 11, 12}),
        "f | except ValueError:": frozenset({13}),
        "f | except ValueError: > return 1": frozenset({14}),
        "C.g | return 1": frozenset({18}),
        "C.g | return 1 #2": frozenset({19}),
    }
