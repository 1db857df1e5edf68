"""Hot-path rule family (hot-*): positive and negative coverage."""

from repro.hotpath import hotpath
from repro.lint import lint_source

from tests.lint.util import lint_fixture, rule_ids

_MARKED = (
    "def hotpath(f):\n"
    "    return f\n"
    "\n"
    "\n"
    "@hotpath\n"
)


class TestHotPathFixtures:
    def test_bad_fixture_trips_every_rule(self):
        ids = rule_ids(lint_fixture("repro/sim/hot_bad.py"))
        assert "hot-comprehension" in ids
        assert "hot-closure" in ids
        assert "hot-fstring" in ids
        assert "hot-star-args" in ids

    def test_good_fixture_is_clean(self):
        report = lint_fixture("repro/sim/hot_good.py")
        assert report.findings == []


class TestArraycoreKernelFixtures:
    """The compiled-kernel pattern: hot bodies clean, factories cold."""

    def test_allocating_kernel_trips_every_rule(self):
        ids = rule_ids(lint_fixture("repro/sim/hot_kernel_bad.py"))
        assert "hot-comprehension" in ids
        assert "hot-closure" in ids
        assert "hot-fstring" in ids
        assert "hot-star-args" in ids

    def test_factory_time_allocation_is_clean(self):
        # The factory's comprehensions/f-strings are cold code; only
        # the marked kernel body is held to the allocation-free bar.
        report = lint_fixture("repro/sim/hot_kernel_good.py")
        assert report.findings == []


class TestHotRules:
    def test_comprehension_in_marked_body_flagged(self):
        source = _MARKED + "def f(q):\n    return [v for v in q]\n"
        assert rule_ids(lint_source(source)) == ["hot-comprehension"]

    def test_unmarked_function_not_flagged(self):
        source = "def f(q):\n    return [v for v in q]\n"
        assert lint_source(source).findings == []

    def test_nested_function_flagged(self):
        source = _MARKED + "def f(q):\n    def key(v):\n        return v\n    return key\n"
        assert rule_ids(lint_source(source)) == ["hot-closure"]

    def test_fstring_flagged(self):
        source = _MARKED + "def f(v):\n    return f'{v}'\n"
        assert rule_ids(lint_source(source)) == ["hot-fstring"]

    def test_star_call_flagged(self):
        source = _MARKED + "def f(g, args):\n    return g(*args)\n"
        assert rule_ids(lint_source(source)) == ["hot-star-args"]

    def test_star_assignment_target_not_flagged(self):
        # Starred unpacking in an assignment target packs no call
        # arguments; only calls and signatures are hot-star-args sites.
        source = _MARKED + "def f(xs):\n    a, *rest = xs\n    return a\n"
        assert lint_source(source).findings == []

    def test_dotted_decorator_recognised(self):
        source = (
            "import repro.hotpath\n"
            "\n"
            "\n"
            "@repro.hotpath.hotpath\n"
            "def f(q):\n"
            "    return [v for v in q]\n"
        )
        assert rule_ids(lint_source(source)) == ["hot-comprehension"]


class TestHotpathDecorator:
    def test_marks_without_wrapping(self):
        def pick():
            return 7

        marked = hotpath(pick)
        assert marked is pick
        assert marked.__repro_hotpath__ is True
        assert marked() == 7
