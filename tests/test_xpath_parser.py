"""XPath lexer/parser over the Definition C.1 fragment."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmark.queries import QUERIES
from repro.xpath.ast import Axis, Path, PredAnd, PredNot, PredOr, PredPath
from repro.xpath.parser import XPathSyntaxError, parse_xpath
from test_planner import MIX20


class TestBasicPaths:
    def test_absolute_child(self):
        p = parse_xpath("/site/regions")
        assert p.absolute
        assert [(s.axis, s.test) for s in p.steps] == [
            (Axis.CHILD, "site"),
            (Axis.CHILD, "regions"),
        ]

    def test_descendant_abbreviation(self):
        p = parse_xpath("//a//b")
        assert p.absolute
        assert all(s.axis is Axis.DESCENDANT for s in p.steps)

    def test_mixed_axes(self):
        p = parse_xpath("/a//b/c")
        assert [s.axis for s in p.steps] == [
            Axis.CHILD,
            Axis.DESCENDANT,
            Axis.CHILD,
        ]

    def test_explicit_axis(self):
        p = parse_xpath("/site/descendant::keyword")
        assert p.steps[1].axis is Axis.DESCENDANT
        assert p.steps[1].test == "keyword"

    def test_following_sibling(self):
        p = parse_xpath("/a/following-sibling::b")
        assert p.steps[1].axis is Axis.FOLLOWING_SIBLING

    def test_attribute_abbreviation(self):
        p = parse_xpath("/a/@id")
        assert p.steps[1].axis is Axis.ATTRIBUTE
        assert p.steps[1].test == "id"

    def test_wildcard_and_node_tests(self):
        p = parse_xpath("/a/*/node()/text()")
        assert [s.test for s in p.steps] == ["a", "*", "node()", "text()"]

    def test_relative_path(self):
        p = parse_xpath("a/b")
        assert not p.absolute

    def test_context_dot_descendant(self):
        p = parse_xpath(".//keyword")
        assert not p.absolute
        assert p.steps[0].axis is Axis.DESCENDANT

    def test_dot_alone(self):
        p = parse_xpath(".")
        assert not p.absolute and p.steps == ()


class TestPredicates:
    def test_simple_existence(self):
        p = parse_xpath("//a[b]")
        pred = p.steps[0].predicate
        assert isinstance(pred, PredPath)
        assert pred.path.steps[0].test == "b"

    def test_boolean_precedence_or_lowest(self):
        p = parse_xpath("//a[b and c or d]")
        pred = p.steps[0].predicate
        assert isinstance(pred, PredOr)
        assert isinstance(pred.left, PredAnd)

    def test_parentheses(self):
        p = parse_xpath("//a[b and (c or d)]")
        pred = p.steps[0].predicate
        assert isinstance(pred, PredAnd)
        assert isinstance(pred.right, PredOr)

    def test_not(self):
        p = parse_xpath("//a[not(b or c)]")
        pred = p.steps[0].predicate
        assert isinstance(pred, PredNot)
        assert isinstance(pred.inner, PredOr)

    def test_nested_predicates(self):
        p = parse_xpath("//a[b[c]]")
        outer = p.steps[0].predicate
        inner = outer.path.steps[0].predicate
        assert isinstance(inner, PredPath)

    def test_multiple_predicates_conjoined(self):
        p = parse_xpath("//a[b][c]")
        pred = p.steps[0].predicate
        assert isinstance(pred, PredAnd)

    def test_dotslashslash_in_predicate(self):
        p = parse_xpath("//a[ .//b ]")
        pred = p.steps[0].predicate
        assert pred.path.steps[0].axis is Axis.DESCENDANT

    def test_relative_child_chain_in_predicate(self):
        p = parse_xpath("//a[ b/c/d ]")
        steps = p.steps[0].predicate.path.steps
        assert [s.test for s in steps] == ["b", "c", "d"]
        assert all(s.axis is Axis.CHILD for s in steps)


class TestPaperQueries:
    @pytest.mark.parametrize("qid", sorted(QUERIES))
    def test_all_figure2_queries_parse(self, qid):
        p = parse_xpath(QUERIES[qid])
        assert p.absolute
        assert p.steps

    def test_q07_structure(self):
        p = parse_xpath(QUERIES["Q07"])
        pred = p.steps[2].predicate
        assert isinstance(pred, PredAnd)
        assert isinstance(pred.right, PredOr)

    def test_q14_explicit_descendant(self):
        p = parse_xpath(QUERIES["Q14"])
        assert p.steps[1].axis is Axis.DESCENDANT


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "/",
            "//",
            "/a[",
            "/a]",
            "/a[]",
            "/a[b or]",
            "/a[(b]",
            "/a/",
            "a b",
            "/a[b)(c]",
            "/$x",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(XPathSyntaxError):
            parse_xpath(text)

    def test_str_roundtrip_reparses(self):
        for q in QUERIES.values():
            p = parse_xpath(q)
            again = parse_xpath(str(p))
            assert str(again) == str(p)


class TestStructuredErrors:
    """Syntax errors carry a machine-readable offset and render a caret."""

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("/a[", 3),
            ("//a[", 4),
            ("/a]", 2),
            ("/a[b or]", 7),
            ("/$x", 1),
            ("a b", 2),
        ],
    )
    def test_offset_points_at_the_failure(self, text, offset):
        with pytest.raises(XPathSyntaxError) as excinfo:
            parse_xpath(text)
        assert excinfo.value.offset == offset
        assert excinfo.value.query == text

    @pytest.mark.parametrize(
        "text, axis, offset",
        [
            ("//a/preceding::b", "preceding", 4),
            ("//a/preceding-sibling::b", "preceding-sibling", 4),
            ("/a/bogus::b", "bogus", 3),
            ("//a/following::b", "following", 4),
            ("//a/namespace::b", "namespace", 4),
            ("/a/self::b", "self", 3),
            ("/a/descendant-or-self::b", "descendant-or-self", 3),
            ("//a/ancestor-or-self::b", "ancestor-or-self", 4),
            ("/following::b", "following", 1),
            ("//a[b/preceding-sibling::c]", "preceding-sibling", 6),
        ],
    )
    def test_an_axis_outside_the_fragment_is_named(self, text, axis, offset):
        with pytest.raises(XPathSyntaxError) as excinfo:
            parse_xpath(text)
        assert excinfo.value.message == f"unsupported axis {axis!r}"
        assert excinfo.value.offset == offset

    def test_offset_appears_in_str(self):
        with pytest.raises(XPathSyntaxError) as excinfo:
            parse_xpath("//a[b(")
        assert "(offset 5)" in str(excinfo.value)

    def test_to_dict_is_the_daemon_error_payload(self):
        with pytest.raises(XPathSyntaxError) as excinfo:
            parse_xpath("//a[b(")
        payload = excinfo.value.to_dict()
        assert payload["kind"] == "syntax"
        assert payload["offset"] == 5
        assert payload["query"] == "//a[b("
        assert "expected" in payload["message"]

    def test_describe_renders_a_caret(self):
        with pytest.raises(XPathSyntaxError) as excinfo:
            parse_xpath("//a[b(")
        lines = excinfo.value.describe().splitlines()
        assert lines[0].startswith("syntax error:")
        assert lines[1] == "  //a[b("
        assert lines[2] == "  " + " " * 5 + "^"

    def test_error_without_context_still_renders(self):
        err = XPathSyntaxError("boom")
        assert err.offset is None
        assert err.describe() == "syntax error: boom"
        assert err.to_dict() == {"kind": "syntax", "message": "boom"}


class TestNesting:
    """Brackets nest at most ``MAX_NESTING`` deep; a deeper query is a
    syntax error at the first bracket past the bound, never a
    ``RecursionError``, and the deepest accepted query runs end to end."""

    @pytest.mark.parametrize(
        "opening, closing",
        [("[b", "]"), ("[(b", ")]"), ("[not(b", ")]"), ("[.//b", "]")],
    )
    def test_one_level_past_the_bound_is_refused_at_its_bracket(
        self, opening, closing
    ):
        from repro.xpath.parser import MAX_NESTING

        text = "/a" + opening * (MAX_NESTING + 1) + closing * (MAX_NESTING + 1)
        with pytest.raises(XPathSyntaxError) as excinfo:
            parse_xpath(text)
        err = excinfo.value
        assert err.message == f"nesting deeper than {MAX_NESTING} brackets"
        brackets = [i for i, ch in enumerate(text) if ch in "[("]
        assert err.offset == brackets[MAX_NESTING]

    def test_ten_thousand_levels_are_a_syntax_error(self):
        from repro.xpath.parser import MAX_NESTING

        text = "/a" + "[b" * 10**4 + "]" * 10**4
        with pytest.raises(XPathSyntaxError) as excinfo:
            parse_xpath(text)
        assert excinfo.value.offset == 2 + 2 * MAX_NESTING

    def test_node_type_tests_open_no_level(self):
        from repro.xpath.parser import MAX_NESTING

        deepest = "/a" + "[text()" * MAX_NESTING + "]" * MAX_NESTING
        assert parse_xpath(deepest).steps[0].test == "a"

    @pytest.mark.parametrize(
        "form",
        [
            lambda d: "/a" + "[b" * d + "]" * d,
            lambda d: "/a" + "[.//b" * d + "]" * d,
            lambda d: "//b" + "[ancestor::b" * d + "]" * d,
            lambda d: "/a[" + "not(" * (d - 1) + "b" + ")" * (d - 1) + "]",
            lambda d: "/a[" + "(" * (d - 1) + "b" + ")" * (d - 1) + "]",
        ],
        ids=["child", "descendant", "ancestor", "not", "parentheses"],
    )
    def test_the_deepest_accepted_query_prepares_executes_and_explains(self, form):
        from repro import Engine
        from repro.xpath.parser import MAX_NESTING

        deep = "<a>" + "<b>" * (MAX_NESTING + 2) + "</b>" * (MAX_NESTING + 2) + "</a>"
        query = form(MAX_NESTING)
        for document in (deep, "<a><c/></a>"):
            engine = Engine(document)
            plan = engine.prepare(query)
            answer = plan.execute().nodes
            assert plan.explain().startswith("strategy: auto")
            engine.index.path_summary(engine.tree.n)  # and bound to the summary
            assert engine.prepare(query, strategy="window").execute().nodes == answer
        with pytest.raises(XPathSyntaxError):
            parse_xpath(form(MAX_NESTING + 1))

    def test_ten_thousand_steps_parse_and_answer(self):
        from repro import Engine

        query = "/a" + "/b" * 10**4
        assert len(parse_xpath(query).steps) == 10**4 + 1
        chain = "<a>" + "<b>" * 10**4 + "</b>" * 10**4 + "</a>"
        assert Engine(chain).count(query) == 1


class TestLexerEquivalence:
    """The one-pattern lexer against the character loop it replaced
    (``tests/lexer_reference.py``): the same tokens at the same offsets,
    or the same error at the same offset."""

    @staticmethod
    def outcome(lex, text):
        try:
            return lex(text)
        except XPathSyntaxError as err:
            return err.message, err.offset

    @staticmethod
    def lexed(text):
        from repro.xpath.parser import _Lexer

        lexer = _Lexer(text)
        return lexer.tokens, lexer.offsets

    def check(self, text):
        import lexer_reference

        assert self.outcome(self.lexed, text) == self.outcome(
            lexer_reference.tokens, text
        )

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(
                    list("abzAZ_09-/:[]()*@.")
                    + [" ", "\t", "\r", "\n"]
                    + list("$#!,'\"<=é\x0b\f\x00")  # no XPath character
                ),
                st.sampled_from(
                    ["//", "::", "..", "node()", "text()", "and", "or", "not(",
                     "child", "descendant", "following-sibling", "parent",
                     "ancestor", "keyword", "a-1", "_x9"]
                ),
            ),
            max_size=24,
        ).map("".join)
    )
    def test_random_strings_lex_alike(self, text):
        self.check(text)

    @pytest.mark.parametrize("text", MIX20)  # Figure 4's Q01-Q15 and five more
    def test_every_benchmark_query_lexes_alike(self, text):
        self.check(text)
        assert self.lexed(text)[0]  # and lexes, rather than failing alike
