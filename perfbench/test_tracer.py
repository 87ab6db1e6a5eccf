"""Tests for the benchmark's tracer (run with pytest from the repo root)."""

import sys
import threading
import types

import pytest

from tracer import Tracer


@pytest.fixture
def fakepkg():
    """A package whose function is also bound by name in a sibling module,
    the way ``from .x import f`` binds it.  Calls between its functions go
    through module attributes, as they do after a rebinding."""
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x * 2

    def caller(x):
        return core.work(x) + 1

    def numbers():
        yield 1
        yield 2

    class Store:
        @classmethod
        def load(cls, x):
            return x

    core.work = work
    core.caller = caller
    core.numbers = numbers
    core.Store = Store
    user.work = work  # by-name import
    outsider = types.ModuleType("otherpkg")
    outsider.work = work
    modules = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user,
               "otherpkg": outsider}
    sys.modules.update(modules)
    yield core, user, outsider, work
    for name in modules:
        del sys.modules[name]


def ticking(step=10):
    """A clock that advances by ``step`` ns each time it is read."""
    ticks = iter(range(0, 10**9, step))
    return lambda: next(ticks)


def test_wrapper_rebinds_every_by_name_import(fakepkg):
    core, user, outsider, work = fakepkg
    tracer = Tracer("fakepkg")
    assert tracer.wrap_function("fakepkg.core", "work", "core.work")
    assert core.work is not work and user.work is core.work
    assert outsider.work is work  # other packages are left alone
    assert user.work(3) == 6 and core.caller(1) == 3
    assert tracer.summary()["spans"]["core.work"]["calls"] == 2
    tracer.uninstall()
    assert core.work is work and user.work is work


def test_self_time_subtracts_child_spans(fakepkg):
    core = fakepkg[0]
    # clock reads: caller enters at 0, work enters at 10 and exits at 20,
    # caller exits at 30
    tracer = Tracer("fakepkg", clock=ticking())
    tracer.wrap_function("fakepkg.core", "caller", "outer")
    tracer.wrap_function("fakepkg.core", "work", "inner")
    assert core.caller(1) == 3
    spans = tracer.summary()["spans"]
    assert spans["outer"]["total_ns"] == 30 and spans["outer"]["self_ns"] == 20
    assert spans["inner"]["total_ns"] == 10 and spans["inner"]["self_ns"] == 10


def test_nested_counts_calls_inside_the_span_only(fakepkg):
    core = fakepkg[0]
    tracer = Tracer("fakepkg")
    tracer.wrap_function("fakepkg.core", "work", "inner")
    tracer.wrap_function("fakepkg.core", "caller", "outer",
                         nested={"inner.inside.outer": "inner"})
    core.work(1)  # outside the outer span: not counted
    core.caller(1)
    core.caller(2)
    summary = tracer.summary()
    assert summary["spans"]["inner"]["calls"] == 3
    assert summary["counters"] == {"inner.inside.outer": 2}


def test_threads_keep_their_own_stacks(fakepkg, tmp_path):
    core = fakepkg[0]
    tracer = Tracer("fakepkg")
    inside = threading.Barrier(2, timeout=10)

    def on_thread():
        inside.wait()
        tracer.count("items")

    def on_main(thread):
        thread.start()
        inside.wait()  # both spans are open at once
        thread.join(timeout=10)

    core.on_thread, core.on_main = on_thread, on_main
    tracer.wrap_function("fakepkg.core", "on_thread", "thread.work")
    tracer.wrap_function("fakepkg.core", "on_main", "main.wait")
    thread = threading.Thread(target=core.on_thread)
    core.on_main(thread)
    assert not thread.is_alive()
    summary = tracer.summary()
    assert summary["spans"]["thread.work"]["calls"] == 1
    assert summary["counters"] == {"items": 1}
    # the thread's span is a root of its own thread, not a child of main's
    rows = tmp_path / "spans.tsv"
    assert tracer.write_spans(rows) == 2
    parents = {line.split("\t")[3]: line.split("\t")[2]
               for line in rows.read_text().splitlines()[1:]}
    assert parents == {"main.wait": "-1", "thread.work": "-1"}
    # a span's own time is not reduced by work on other threads
    main = summary["spans"]["main.wait"]
    assert main["self_ns"] == main["total_ns"]


def test_missing_target_is_reported_absent(fakepkg):
    tracer = Tracer("fakepkg")
    assert not tracer.wrap_function("fakepkg.core", "gone", "core.gone")
    assert not tracer.wrap_function("fakepkg.nomodule", "work", "x")
    assert not tracer.wrap_method("fakepkg.core", "Store", "gone", "x")
    assert not tracer.wrap_generator("fakepkg.core", "gone", "x")
    assert not tracer.patch_attribute("fakepkg.core", "gone", object())
    assert tracer.absent == ["fakepkg.core.gone", "fakepkg.nomodule.work",
                             "fakepkg.core.Store.gone", "fakepkg.core.gone",
                             "fakepkg.core.gone"]
    assert tracer.summary()["spans"] == {}


def test_classmethod_and_distinct_keys(fakepkg):
    core = fakepkg[0]
    tracer = Tracer("fakepkg")
    tracer.wrap_method("fakepkg.core", "Store", "load", "store.load",
                       key=lambda cls, x: x % 2)
    assert [core.Store.load(x) for x in (1, 2, 3, 5)] == [1, 2, 3, 5]
    row = tracer.summary()["spans"]["store.load"]
    assert row["calls"] == 4 and row["distinct"] == 2
    tracer.uninstall()
    assert isinstance(core.Store.__dict__["load"], classmethod)


def test_generator_spans_exclude_the_consumer(fakepkg):
    core = fakepkg[0]
    tracer = Tracer("fakepkg", clock=ticking())
    tracer.wrap_generator("fakepkg.core", "numbers", "gen.next",
                          on_item=lambda item: tracer.count("items"))
    tracer.wrap_function("fakepkg.core", "work", "consumer")
    consumed = [core.work(item) for item in core.numbers()]
    summary = tracer.summary()
    assert consumed == [2, 4]
    assert summary["spans"]["gen.next"]["calls"] == 3  # two items and the end
    # each next() takes one 10 ns tick; the consumer's spans are not inside
    assert summary["spans"]["gen.next"]["total_ns"] == 30
    assert summary["spans"]["gen.next"]["self_ns"] == 30
    assert summary["spans"]["consumer"]["calls"] == 2
    assert summary["counters"] == {"items": 2}
