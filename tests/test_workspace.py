"""Multi-document Workspace: shared compiled queries, batch execution."""

import pytest

from repro import Workspace

import oracle_sqlite

D1 = "<r><a><b/></a><b/></r>"
D2 = "<r><b/><a><b/><b/></a></r>"
D3 = "<r><c><a><b/></a></c></r>"


def three_documents(**kwargs):
    ws = Workspace(**kwargs)
    ws.add("d1", D1)
    ws.add("d2", D2)
    ws.add("d3", D3)
    return ws


@pytest.fixture()
def workspace():
    return three_documents()


@pytest.fixture()
def automaton_workspace():
    """Under a strategy that compiles an ASTA (the default's kernel
    compiles nothing, so its compiled cache stays empty)."""
    return three_documents(strategy="optimized")


class TestDocumentManagement:
    def test_add_returns_engine_and_registers(self, workspace):
        assert workspace.documents() == ["d1", "d2", "d3"]
        assert len(workspace) == 3
        assert "d2" in workspace and "nope" not in workspace

    def test_duplicate_name_rejected(self, workspace):
        with pytest.raises(ValueError, match="d1"):
            workspace.add("d1", D2)

    def test_unknown_document_rejected(self, workspace):
        with pytest.raises(KeyError, match="registered"):
            workspace.engine("nope")

    def test_remove(self, workspace):
        workspace.remove("d2")
        assert workspace.documents() == ["d1", "d3"]


class TestCrossDocumentQueries:
    def test_select_all_matches_the_oracle_per_document(self, workspace):
        results = workspace.select_all("//a/b")
        assert results == {
            name: oracle_sqlite.select(xml, "//a/b")
            for name, xml in (("d1", D1), ("d2", D2), ("d3", D3))
        }

    def test_select_all_shares_one_compilation(self, automaton_workspace):
        workspace = automaton_workspace
        workspace.select_all("//a/b")
        # All three documents are element-only: one inventory key, one
        # compile; the other executions are cache hits.
        assert workspace.cache.compilations == 1
        assert workspace.cache.hits == 2
        a1 = workspace.engine("d1").compile("//a/b")
        a2 = workspace.engine("d3").compile("//a/b")
        assert a1 is a2

    def test_count_all(self, workspace):
        assert workspace.count_all("//b") == {"d1": 2, "d2": 3, "d3": 1}

    def test_select_single_document(self, workspace):
        assert workspace.select("//a/b", document="d2") == [3, 4]


class TestBatches:
    def test_select_many_single_document(self, workspace):
        out = workspace.select_many(["//a", "//b"], document="d2")
        assert out == {"//a": [2], "//b": [1, 3, 4]}

    def test_select_many_all_documents(self, workspace):
        out = workspace.select_many(["//a/b"])
        assert set(out) == {"d1", "d2", "d3"}
        assert out["d2"]["//a/b"] == [3, 4]

    def test_batch_compiles_each_query_once(self, automaton_workspace):
        automaton_workspace.select_many(["//a", "//b", "//a/b"])
        assert automaton_workspace.cache.compilations == 3

    def test_prepare_through_workspace(self, workspace):
        plan = workspace.prepare("//a/b", document="d1")
        assert list(plan.execute().ids) == [2]
        assert workspace.prepare("//a/b", document="d1") is plan

    def test_execute_returns_independent_results(self, workspace):
        r1 = workspace.execute("//b", document="d1")
        r2 = workspace.execute("//b", document="d2")
        assert r1.stats is not r2.stats
        assert (r1.stats.selected, r2.stats.selected) == (2, 3)


class TestWorkspaceConfiguration:
    def test_strategy_applies_to_all_documents(self):
        ws = Workspace(strategy="naive")
        ws.add("d1", D1)
        assert ws.engine("d1").strategy == "naive"
        assert ws.select("//a/b", document="d1") == [2]

    def test_unknown_strategy_surfaces_on_add(self):
        ws = Workspace(strategy="warp")
        with pytest.raises(ValueError):
            ws.add("d1", D1)

    def test_encoded_documents_get_distinct_cache_keys(self):
        ws = Workspace(strategy="optimized", encode_attributes=True)
        ws.add("d1", '<r><a id="1"/></r>')
        ws.add("d2", '<r><b id="2"/></r>')
        ws.select_all("//*")
        # Different element inventories => two compilations of the same
        # wildcard query, not a shared (wrong) automaton.
        assert ws.cache.compilations == 2
        e1, e2 = ws.engine("d1"), ws.engine("d2")
        assert e1.labels_of(ws.select("//*", document="d1")) == ["r", "a"]
        assert e2.labels_of(ws.select("//*", document="d2")) == ["r", "b"]
