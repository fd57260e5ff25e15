"""Pricing calls hold every loaded OpenBLAS to one thread and give the caller
back its own thread count afterwards."""

import contextlib
import sys
import threading

import pytest

import polydiv.maxent as maxent
import polydiv.moments as moments
from polydiv import _blas
from polydiv.errors import NumericError
from polydiv.maxent import OptionSpec, price_dividend_option, price_stock_option
from polydiv.moments import stock_price_moments

from conftest import reference_params, reference_state

requires_blas = pytest.mark.skipif(not _blas.libraries(), reason="no OpenBLAS library loaded")


def _setters():
    with _blas._LOCK:
        return [setter for _, setter in _blas._found()]


def counts():
    """Each library's thread count, read by setting it and setting it back."""
    setters = _setters()
    found = [setter(1) for setter in setters]
    for setter, n in zip(setters, found):
        setter(n)
    return found


@contextlib.contextmanager
def caller_count(n):
    """Run the body with every library set to `n` threads, then restore."""
    setters = _setters()
    before = [setter(n) for setter in setters]
    try:
        yield [n] * len(setters)
    finally:
        for setter, count in zip(setters, before):
            setter(count)


@pytest.fixture
def cold_memo(monkeypatch):
    def clear():
        monkeypatch.setattr(moments, "_record", moments._Record(None))
        maxent._cold_fit.cache_clear()
    clear()
    return clear


def _stock_spec(p):
    return OptionSpec("call", "stock", 1.0, 1.0, p.r)


def _dividend_spec(p):
    return OptionSpec("call", "dividend", 0.037, 2.0, p.r, (1.0, 2.0))


@requires_blas
def test_count_is_one_inside_priced_calls_and_restored_after(monkeypatch, cold_memo):
    seen = []
    expm, fit = moments.expm, maxent.fit_maxent
    monkeypatch.setattr(moments, "expm", lambda a: seen.append(("expm", counts())) or expm(a))
    monkeypatch.setattr(maxent, "fit_maxent",
                        lambda m, start=None, **kw: seen.append(("fit", counts()))
                        or fit(m, start=start, **kw))
    p, st = reference_params(), reference_state()
    with caller_count(2) as caller:
        price_stock_option(p, None, st, _stock_spec(p), 4)
        price_dividend_option(p, None, st, _dividend_spec(p), 4)
        assert counts() == caller
    assert {name for name, _ in seen} == {"expm", "fit"}
    assert all(c == [1] * len(caller) for _, c in seen)


@requires_blas
def test_count_is_one_inside_price_option(monkeypatch, cold_memo):
    seen = []
    integrate = maxent.integrate_payoff
    monkeypatch.setattr(maxent, "integrate_payoff",
                        lambda *args, **kw: seen.append(counts()) or integrate(*args, **kw))
    p, st = reference_params(), reference_state()
    with caller_count(2) as caller:
        maxent.price_option(p, None, st, _stock_spec(p), 4)
        assert counts() == caller
    assert seen == [[1] * len(caller)]


@requires_blas
def test_count_restored_after_an_exception(monkeypatch, cold_memo):
    inside = []

    def failing_expm(a):
        inside.append(counts())
        raise NumericError("no exponential")

    monkeypatch.setattr(moments, "expm", failing_expm)
    p, st = reference_params(), reference_state()
    with caller_count(2) as caller:
        with pytest.raises(NumericError):
            stock_price_moments(p, None, st, 0.0, 1.0, 2)
        assert counts() == caller
    assert inside == [[1] * len(caller)]
    assert _blas._depth == 0


@requires_blas
def test_count_restored_after_overlapping_scopes_of_two_threads():
    first_in, second_in, first_out = (threading.Event() for _ in range(3))
    seen = []

    @_blas.single_thread
    def first():
        first_in.set()
        second_in.wait(10)

    @_blas.single_thread
    def second():
        first_in.wait(10)
        second_in.set()
        first_out.wait(10)
        seen.append(counts())

    with caller_count(2) as caller:
        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        threads[0].join(10)
        first_out.set()
        threads[1].join(10)
        assert not any(thread.is_alive() for thread in threads)
        # the first scope left while the second was inside: still one thread
        assert seen == [[1] * len(caller)]
        assert counts() == caller


@requires_blas
def test_depth_count_survives_many_racing_scopes():
    seen = []

    @_blas.single_thread
    def inner():
        seen.append(counts())

    @_blas.single_thread
    def outer():
        for _ in range(50):
            inner()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with caller_count(2) as caller:
            threads = [threading.Thread(target=outer) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert not any(thread.is_alive() for thread in threads)
            assert counts() == caller
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 200 and all(c == [1] * len(caller) for c in seen)
    assert _blas._depth == 0


def test_nothing_found_leaves_prices_unchanged(monkeypatch, cold_memo):
    p, st = reference_params(), reference_state()
    expected = [price_stock_option(p, None, st, _stock_spec(p), 5),
                price_dividend_option(p, None, st, _dividend_spec(p), 5)]
    # the caller runs one thread itself, so both sides do the same arithmetic
    with caller_count(1):
        monkeypatch.setattr(_blas, "_found", lambda: ())
        cold_memo()
        got = [price_stock_option(p, None, st, _stock_spec(p), 5),
               price_dividend_option(p, None, st, _dividend_spec(p), 5)]
        assert _blas.libraries() == []
    assert got == expected
