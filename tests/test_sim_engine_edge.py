"""Edge-case coverage for the DES kernel beyond the basics."""

import pytest

from repro.sim import Environment, Interrupt


def test_all_of_failure_propagates():
    env = Environment()
    caught = []

    def bad_child():
        yield env.timeout(2.0)
        raise ValueError("child exploded")

    def good_child():
        yield env.timeout(5.0)
        return "ok"

    def parent():
        kids = [env.process(bad_child()), env.process(good_child())]
        try:
            yield env.all_of(kids)
        except ValueError as e:
            caught.append(str(e))

    env.process(parent())
    env.run()
    assert caught == ["child exploded"]


def test_process_exception_reaches_waiter():
    env = Environment()
    caught = []

    def failing():
        yield env.timeout(1.0)
        raise RuntimeError("inner")

    def waiter():
        p = env.process(failing())
        try:
            yield p
        except RuntimeError as e:
            caught.append(str(e))

    env.process(waiter())
    env.run()
    assert caught == ["inner"]


def test_unwaited_process_exception_surfaces_from_run():
    env = Environment()

    def failing():
        yield env.timeout(1.0)
        raise RuntimeError("nobody listening")

    env.process(failing())
    with pytest.raises(RuntimeError, match="nobody listening"):
        env.run()


def test_interrupt_handled_and_process_continues():
    env = Environment()
    log = []

    def worker():
        try:
            yield env.timeout(100.0)
        except Interrupt:
            log.append(("interrupted", env.now))
        yield env.timeout(3.0)  # keeps going after handling
        log.append(("done", env.now))

    def boss(w):
        yield env.timeout(4.0)
        w.interrupt()

    w = env.process(worker())
    env.process(boss(w))
    env.run()
    assert log == [("interrupted", 4.0), ("done", 7.0)]


def test_nested_yield_from_generators():
    env = Environment()
    trace = []

    def inner(tag):
        yield env.timeout(1.0)
        trace.append((tag, env.now))
        return tag * 2

    def outer():
        a = yield from inner(1)
        b = yield from inner(10)
        trace.append(("sum", a + b))

    env.process(outer())
    env.run()
    assert trace == [(1, 1.0), (10, 2.0), ("sum", 22)]


def test_zero_delay_timeouts_preserve_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(0.0)
        order.append(tag)
        yield env.timeout(0.0)
        order.append(tag + 10)

    env.process(proc(0))
    env.process(proc(1))
    env.run()
    assert order == [0, 1, 10, 11]


def test_chained_immediate_events_terminate():
    """Already-processed events resumed synchronously must not recurse."""
    env = Environment()
    done = []

    def proc():
        ev = env.event()
        ev.succeed("v")
        yield env.timeout(0.0)
        # ev is processed by now; waiting resumes synchronously many times
        for _ in range(2000):
            v = yield ev
            assert v == "v"
        done.append(True)

    env.process(proc())
    env.run()
    assert done == [True]
