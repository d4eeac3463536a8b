"""REP-O001..O003: span-taxonomy and Tracer-clock rules."""

from __future__ import annotations

import textwrap

from repro.analysis import lint_source


def rules_of(
    source: str, cost_scope: bool = True, path: str = "<string>"
) -> set[str]:
    return {
        f.rule
        for f in lint_source(
            textwrap.dedent(source), path, cost_scope=cost_scope
        )
    }


def test_o001_fires_on_unregistered_span_name():
    violating = """
        '''Module.'''

        from ..instrument import trace as _trace


        def drop():
            '''Doc.'''
            with _trace.span("game.dorp"):
                pass
    """
    assert "REP-O001" in rules_of(violating)


def test_o001_silent_for_registered_names():
    clean = """
        '''Module.'''

        from ..instrument import trace as _trace


        def drop():
            '''Doc.'''
            with _trace.span("game.drop", detail={"tokens": 3}):
                with _trace.span("game.drop.phase"):
                    pass
    """
    assert "REP-O001" not in rules_of(clean)


def test_o002_fires_on_dynamic_span_name():
    violating = """
        '''Module.'''

        from ..instrument import trace as _trace


        def drop(which):
            '''Doc.'''
            with _trace.span("game." + which):
                pass
    """
    assert "REP-O002" in rules_of(violating)


def test_rules_scoped_to_cost_packages():
    violating = """
        '''Module.'''

        from ..instrument import trace as _trace


        def drop():
            '''Doc.'''
            with _trace.span("game.dorp"):
                pass
    """
    assert "REP-O001" not in rules_of(violating, cost_scope=False)


def test_bare_span_import_is_checked():
    violating = """
        '''Module.'''

        from ..instrument.trace import span


        def drop():
            '''Doc.'''
            with span("nope.nope"):
                pass
    """
    assert "REP-O001" in rules_of(violating)


def test_unrelated_span_methods_are_ignored():
    clean = """
        '''Module.'''


        def layout(doc):
            '''A .span() on something that is not a tracer.'''
            return doc.span("not-a-taxonomy-name")
    """
    assert rules_of(clean) == set()


def test_suppression_comment_silences():
    suppressed = """
        '''Module.'''

        from ..instrument import trace as _trace


        def drop():
            '''Doc.'''
            with _trace.span("custom.site"):  # reprolint: disable=REP-O001
                pass
    """
    assert "REP-O001" not in rules_of(suppressed)


def test_real_instrumented_modules_are_clean():
    import pathlib

    import repro.core.tokens as tokens_mod
    import repro.core.coreness as coreness_mod

    for mod in (tokens_mod, coreness_mod):
        source = pathlib.Path(mod.__file__).read_text()
        assert {r for r in rules_of(source) if r.startswith("REP-O")} == set()


# -- REP-O003: the Tracer clock ------------------------------------------------

_CLOCK_VIOLATION = """
    '''Module.'''

    import time


    def measure():
        '''Doc.'''
        return time.perf_counter()
"""


def test_o003_fires_on_direct_time_reads():
    assert "REP-O003" in rules_of(_CLOCK_VIOLATION)


def test_o003_fires_outside_cost_scope_too():
    # unlike O001/O002, the clock rule covers benchmarks and tests
    assert "REP-O003" in rules_of(_CLOCK_VIOLATION, cost_scope=False)


def test_o003_fires_on_from_import_spelling():
    violating = """
        '''Module.'''

        from time import monotonic as mono


        def measure():
            '''Doc.'''
            return mono()
    """
    assert "REP-O003" in rules_of(violating)


def test_o003_exempts_instrument_package():
    assert "REP-O003" not in rules_of(
        _CLOCK_VIOLATION, path="src/repro/instrument/wallclock.py"
    )


def test_o003_silent_for_tracer_clock_and_non_clock_time_use():
    clean = """
        '''Module.'''

        import time

        from repro.instrument import wallclock


        def measure():
            '''sleep() is not a clock read; monotonic() is the Tracer clock.'''
            time.sleep(0.01)
            return wallclock.monotonic()
    """
    assert "REP-O003" not in rules_of(clean)

