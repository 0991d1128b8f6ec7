"""A dropped engine frees its index by reference counting alone.

Every test runs with the cyclic collector off.  The last reference to an
:class:`~repro.engine.api.Engine` (or the close of a
:class:`~repro.engine.workspace.Workspace` that opened its documents)
must free the :class:`~repro.index.jumping.TreeIndex` at once and leave
nothing behind for ``gc.collect()`` -- under every registered strategy,
on a forward, a predicate and a backward query.  A plan kept past its
engine goes on answering exactly as before.
"""

import gc
import weakref

import pytest

from repro import Engine, Workspace, strategy_names
from repro.xmark.generator import XMarkGenerator

QUERIES = {
    "forward": "//listitem//keyword",
    "predicate": "/site/regions/*/item[ mailbox/mail ]/name",
    "backward": "//keyword/ancestor::listitem",
}


@pytest.fixture(scope="module")
def xml():
    return XMarkGenerator(scale=0.02, seed=1).xml()


@pytest.fixture(scope="module")
def store(xml, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("lifetime-store"))
    ws = Workspace()
    ws.add("a", xml)
    ws.add("b", xml)
    ws.save(path)
    return path


@pytest.fixture()
def no_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.usefixtures("no_gc")
@pytest.mark.parametrize("kind", sorted(QUERIES))
@pytest.mark.parametrize("strategy", strategy_names())
class TestDroppedEngineFreesItsIndex:
    def test_del_engine(self, xml, strategy, kind):
        engine = Engine(xml, strategy=strategy)
        engine.prepare(QUERIES[kind]).execute()
        index = weakref.ref(engine.index)
        gc.collect()  # whatever preparing left behind is not the engine's
        del engine
        assert index() is None
        assert gc.collect() == 0

    def test_workspace_close(self, store, strategy, kind):
        ws = Workspace(strategy=strategy)
        ws.open_store(store)
        ws.select_all(QUERIES[kind])
        indexes = [weakref.ref(ws.engine(name).index) for name in ws.documents()]
        gc.collect()  # the .npy header parse leaves stdlib cycles behind
        ws.close()
        assert [index() for index in indexes] == [None, None]
        assert gc.collect() == 0


@pytest.mark.parametrize("kind", sorted(QUERIES))
@pytest.mark.parametrize("strategy", strategy_names())
def test_a_plan_outlives_its_engine(xml, strategy, kind):
    engine = Engine(xml, strategy=strategy)
    plan = engine.prepare(QUERIES[kind])
    result = plan.execute()
    labels = plan.engine.labels_of(result.nodes)
    explained = plan.explain()
    index, gone = engine.index, weakref.ref(engine)
    del engine
    assert gone() is None
    again = plan.execute()
    assert again.ids == result.ids and again.accepted == result.accepted
    assert plan.index is index
    assert plan.engine.labels_of(again.nodes) == labels
    assert plan.explain() == explained
