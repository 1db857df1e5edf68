"""Error-handling rule family (err-*): positive and negative coverage."""

from repro.lint import lint_source

from tests.lint.util import lint_fixture, rule_ids


class TestErrorHandlingFixtures:
    def test_bad_fixture_trips_every_rule(self):
        ids = rule_ids(lint_fixture("repro/xen/err_bad.py"))
        assert "err-bare-except" in ids
        assert "err-swallowed-error" in ids
        assert "err-registry-rollback" in ids

    def test_good_fixture_is_clean(self):
        report = lint_fixture("repro/xen/err_good.py")
        assert report.findings == []


class TestBareExcept:
    def test_bare_except_flagged_everywhere(self):
        source = "try:\n    f()\nexcept:\n    pass\n"
        assert "err-bare-except" in rule_ids(lint_source(source))

    def test_typed_except_ok(self):
        source = "try:\n    f()\nexcept ValueError:\n    raise\n"
        assert lint_source(source).findings == []


class TestSwallowedError:
    def test_silent_pass_flagged(self):
        source = "try:\n    f()\nexcept ReproError:\n    pass\n"
        assert "err-swallowed-error" in rule_ids(lint_source(source))

    def test_recording_handler_ok(self):
        source = "try:\n    f()\nexcept ReproError as e:\n    log.append(e)\n"
        assert lint_source(source).findings == []

    def test_reraising_handler_ok(self):
        source = "try:\n    f()\nexcept PlanningError:\n    raise\n"
        assert lint_source(source).findings == []


class TestRegistryRollback:
    def test_unprotected_mutation_then_replan_flagged(self):
        source = (
            "def create(self, spec):\n"
            "    self.registry.add(spec)\n"
            "    self.daemon.replan(self.registry.specs)\n"
        )
        report = lint_source(source, module="repro.xen.m")
        assert rule_ids(report) == ["err-registry-rollback"]

    def test_try_with_reraise_protects(self):
        source = (
            "def create(self, spec):\n"
            "    self.registry.add(spec)\n"
            "    try:\n"
            "        self.daemon.replan(self.registry.specs)\n"
            "    except PlanningError:\n"
            "        self.registry.remove(spec.name)\n"
            "        raise\n"
        )
        report = lint_source(source, module="repro.xen.m")
        assert report.findings == []

    def test_nested_def_violation_reported_once(self):
        # The enclosing function's check reads the nested def's body too,
        # so both functions flag the same call.
        source = (
            "def outer(self):\n"
            "    def inner():\n"
            "        self.registry.add(x)\n"
            "        self.daemon.replan(specs, reason='r')\n"
            "    inner()\n"
        )
        report = lint_source(source, module="repro.xen.m")
        assert [(f.rule_id, f.line, f.col) for f in report.findings] == [
            ("err-registry-rollback", 4, 8)
        ]

    def test_rule_scoped_to_xen(self):
        source = (
            "def create(self, spec):\n"
            "    self.registry.add(spec)\n"
            "    self.daemon.replan(self.registry.specs)\n"
        )
        report = lint_source(source, module="repro.health.m")
        assert "err-registry-rollback" not in rule_ids(report)


class TestNonatomicWrite:
    def test_bad_fixture_trips_every_write_shape(self):
        report = lint_fixture("repro/service/atomic_bad.py")
        ids = rule_ids(report)
        # Literal "w", conditional "a"/"w", mode="xb" keyword,
        # write_bytes, write_text — five torn-write shapes.
        assert ids.count("err-nonatomic-write") == 5

    def test_good_fixture_is_clean(self):
        report = lint_fixture("repro/service/atomic_good.py")
        assert report.findings == []

    def test_truncating_open_flagged_in_scope(self):
        source = 'open(p, "w")\n'
        for module in ("repro.service.journal", "repro.campaign.report"):
            report = lint_source(source, module=module)
            assert "err-nonatomic-write" in rule_ids(report), module

    def test_out_of_scope_packages_unflagged(self):
        source = 'open(p, "w")\n'
        for module in ("repro.xen.daemon", "repro.core.serialize", "repro.cli"):
            report = lint_source(source, module=module)
            assert "err-nonatomic-write" not in rule_ids(report), module

    def test_append_and_read_modes_allowed(self):
        for mode in ("a", "ab", "r", "rb"):
            source = f'open(p, "{mode}")\n'
            report = lint_source(source, module="repro.service.m")
            assert report.findings == [], mode

    def test_conditional_mode_with_truncating_branch_flagged(self):
        source = 'open(p, "a" if resume else "w")\n'
        report = lint_source(source, module="repro.campaign.runner")
        assert "err-nonatomic-write" in rule_ids(report)

    def test_mode_keyword_flagged(self):
        source = 'open(p, mode="wb")\n'
        report = lint_source(source, module="repro.service.m")
        assert "err-nonatomic-write" in rule_ids(report)

    def test_dynamic_mode_not_guessed_at(self):
        # A mode the rule cannot prove truncating is left alone.
        source = "open(p, mode)\n"
        report = lint_source(source, module="repro.service.m")
        assert "err-nonatomic-write" not in rule_ids(report)

    def test_path_writers_flagged(self):
        for call in ("Path(p).write_bytes(b)", "target.write_text(s)"):
            report = lint_source(call + "\n", module="repro.service.m")
            assert "err-nonatomic-write" in rule_ids(report), call

    def test_suppression_comment_honored(self):
        source = 'open(p, "w")  # repro: allow[err-nonatomic-write]\n'
        report = lint_source(source, module="repro.service.m")
        assert report.findings == []
