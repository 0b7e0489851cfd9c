"""Tests for the repro-lint static-analysis suite.

Covers: one test per rule against the ``tests/lint_fixtures`` corpus
(known-bad snippets must trip exactly their rule; known-good must be
clean), suppression comments, the JSON reporter, the CLI surface, and
the INV003 regression proving that adding a ``SystemConfig`` field
without a ``CACHE_SCHEMA_VERSION`` bump fails the lint.
"""

import ast
import json
import pathlib

import pytest

from repro.lint import (RULE_REGISTRY, all_rule_codes, build_rules,
                        render_human, render_json, run_lint)
from repro.lint.__main__ import main as lint_main
from repro.lint.engine import (compute_hot_set, load_module,
                               module_name_for)
from repro.lint.invariants import (check_config_pin, struct_hash,
                                   struct_hash_of_sources)
from repro.lint.config_pin import PINNED_STRUCT_HASHES

REPO = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "lint_fixtures"
SRC = REPO / "src" / "repro"


def lint_path(path, select=None):
    rules = build_rules(select=select or [])
    return run_lint([path], rules)


def codes(result):
    return {v.code for v in result.violations}


# ---------------------------------------------------------------------------
# Per-rule fixture corpus
# ---------------------------------------------------------------------------

class TestRuleFixtures:
    @pytest.mark.parametrize("fixture,expected", [
        ("bad_det001.py", "DET001"),
        ("bad_det002.py", "DET002"),
        ("bad_det003.py", "DET003"),
        ("bad_inv001.py", "INV001"),
        ("bad_inv002", "INV002"),
        ("bad_inv003", "INV003"),
        ("bad_inv004.py", "INV004"),
        ("bad_sat001.py", "SAT001"),
        ("bad_unit001.py", "UNIT001"),
        ("bad_par001.py", "PAR002"),
        ("bad_stat001.py", "STAT001"),
    ])
    def test_bad_fixture_trips_only_its_rule(self, fixture, expected):
        result = lint_path(FIXTURES / fixture)
        assert not result.ok
        assert codes(result) == {expected}

    @pytest.mark.parametrize("fixture", [
        "good_det001.py", "good_det003.py", "good_inv001.py",
        "good_inv004.py", "good_sat001.py", "good_unit001.py",
        "good_par001.py", "good_stat001.py",
    ])
    def test_good_fixture_is_clean(self, fixture):
        result = lint_path(FIXTURES / fixture)
        assert result.ok
        assert result.violations == []

    def test_det001_catches_every_construct(self):
        result = lint_path(FIXTURES / "bad_det001.py", select=["DET001"])
        lines = {v.line for v in result.violations}
        # import, shuffle call, choice, np.seed, np.rand, unseeded
        # default_rng, unseeded Random.
        assert len(result.violations) == 7
        assert {6, 9, 11, 12, 13, 14, 15} == lines

    def test_det002_resolves_aliased_imports(self):
        result = lint_path(FIXTURES / "bad_det002.py", select=["DET002"])
        messages = "\n".join(v.message for v in result.violations)
        assert "time.time()" in messages
        assert "datetime.datetime.now()" in messages
        assert "os.urandom()" in messages
        assert "time.perf_counter()" in messages

    def test_det003_flags_union_and_list_capture(self):
        result = lint_path(FIXTURES / "bad_det003.py", select=["DET003"])
        assert len(result.violations) == 3

    def test_inv002_names_the_orphan_class(self):
        result = lint_path(FIXTURES / "bad_inv002")
        assert len(result.violations) == 1
        assert "OrphanPolicy" in result.violations[0].message
        assert result.violations[0].path.endswith("orphan.py")

    def test_inv004_names_the_orphan_pattern(self):
        result = lint_path(FIXTURES / "bad_inv004.py")
        assert len(result.violations) == 1
        assert "OrphanPattern" in result.violations[0].message
        assert "register_pattern" in result.violations[0].message

    def test_inv004_project_check_guards_differential_matrix(self,
                                                             tmp_path):
        # A tree whose traces/patterns module exists but whose
        # tests/test_patterns.py enumerates kinds by hand (no
        # pattern_names/PATTERN_REGISTRY) must trip INV004.
        pkg = tmp_path / "src" / "repro" / "traces"
        pkg.mkdir(parents=True)
        for parent in (tmp_path / "src" / "repro",
                       tmp_path / "src" / "repro" / "traces"):
            (parent / "__init__.py").write_text("")
        (pkg / "patterns.py").write_text(
            "PATTERN_REGISTRY = {}\n")
        tests_dir = tmp_path / "tests"
        tests_dir.mkdir()
        (tests_dir / "test_patterns.py").write_text(
            "KINDS = ['uniform', 'zipfian']\n")
        result = lint_path(tmp_path / "src", select=["INV004"])
        assert not result.ok
        assert codes(result) == {"INV004"}
        assert "differential" in result.violations[0].message


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------

class TestSuppressions:
    @pytest.mark.parametrize("fixture", [
        "suppressed_det001.py", "suppressed_inv004.py",
        "suppressed_sat001.py", "suppressed_unit001.py",
        "suppressed_par001.py", "suppressed_stat001.py",
    ])
    def test_inline_and_file_suppressions(self, fixture):
        result = lint_path(FIXTURES / fixture)
        assert result.ok, [v.render() for v in result.violations]

    def test_suppressed_fixture_trips_without_comments(self, tmp_path):
        source = (FIXTURES / "suppressed_det001.py").read_text()
        stripped = "\n".join(
            line.split("# repro-lint:")[0] for line in source.splitlines())
        target = tmp_path / "unsuppressed.py"
        target.write_text(stripped)
        result = lint_path(target)
        assert {"DET001", "DET003"} <= codes(result)

    def test_disable_all_silences_everything(self, tmp_path):
        target = tmp_path / "all_off.py"
        target.write_text("# repro-lint: disable-file=all\n"
                          "import random\n"
                          "x = random.random()\n")
        assert lint_path(target).ok


# ---------------------------------------------------------------------------
# Engine mechanics
# ---------------------------------------------------------------------------

class TestEngine:
    def test_module_name_resolution_in_package(self):
        name, in_package = module_name_for(SRC / "sim" / "config.py")
        assert name == "repro.sim.config"
        assert in_package

    def test_module_name_resolution_standalone(self):
        name, in_package = module_name_for(FIXTURES / "bad_det001.py")
        assert name == "bad_det001"
        assert not in_package

    def test_hot_set_reaches_caches_but_not_engine(self):
        modules = [load_module(p) for p in sorted(SRC.rglob("*.py"))
                   if "__pycache__" not in p.parts]
        hot = compute_hot_set(modules)
        assert "repro.sim.simulator" in hot
        assert "repro.cache.hierarchy" in hot
        assert "repro.replacement.lru" in hot
        # The sweep engine wraps the simulator, not the reverse: its
        # wall-clock bookkeeping must stay outside the hot set.
        assert "repro.experiments.engine" not in hot

    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def nope(:\n")
        result = lint_path(target)
        assert not result.ok
        assert codes(result) == {"PARSE"}

    def test_rule_registry_is_complete(self):
        assert set(all_rule_codes()) == {"DET001", "DET002", "DET003",
                                         "INV001", "INV002", "INV003",
                                         "INV004",
                                         "SAT001", "UNIT001",
                                         "STAT001", "SUP001",
                                         "ASY001", "ASY002", "LOCK001",
                                         "ATOM001", "EXC001", "EVT001",
                                         "CKEY001", "CKEY002", "PAR002"}
        for code, cls in RULE_REGISTRY.items():
            assert cls.title, code
            assert cls.severity in ("warning", "error"), code
            assert cls.tier in ("contracts", "dataflow",
                                "concurrency", "interproc"), code

    def test_select_and_ignore(self):
        only = build_rules(select=["DET001"])
        assert [r.code for r in only] == ["DET001"]
        rest = build_rules(ignore=["DET001"])
        assert "DET001" not in [r.code for r in rest]
        with pytest.raises(ValueError):
            build_rules(select=["NOPE999"])

    def test_select_accepts_family_prefix(self):
        dets = build_rules(select=["DET"])
        assert [r.code for r in dets] == ["DET001", "DET002", "DET003"]
        mixed = build_rules(select=["SAT", "UNIT001"])
        assert [r.code for r in mixed] == ["SAT001", "UNIT001"]
        no_dataflow = build_rules(ignore=["SAT", "UNIT", "PAR", "STAT",
                                          "ASY", "LOCK", "ATOM", "EXC",
                                          "EVT", "SUP", "CKEY"])
        assert [r.code for r in no_dataflow] == [
            "DET001", "DET002", "DET003", "INV001", "INV002", "INV003",
            "INV004"]
        with pytest.raises(ValueError):
            build_rules(select=["ZZZ"])


# ---------------------------------------------------------------------------
# Reporters & CLI
# ---------------------------------------------------------------------------

class TestReporting:
    def test_json_reporter_shape(self):
        result = lint_path(FIXTURES / "bad_det001.py")
        payload = json.loads(render_json(result))
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        assert payload["counts"]["DET001"] == 7
        first = payload["violations"][0]
        assert set(first) == {"code", "message", "path", "line", "col",
                              "severity"}

    def test_human_reporter_mentions_summary(self):
        result = lint_path(FIXTURES / "good_det001.py")
        assert "clean" in render_human(result)

    def test_cli_exit_codes(self, capsys):
        assert lint_main([str(FIXTURES / "good_det001.py")]) == 0
        assert lint_main([str(FIXTURES / "bad_det001.py")]) == 1
        assert lint_main(["/nonexistent/nope.py"]) == 2
        assert lint_main(["--select", "BOGUS", str(FIXTURES)]) == 2
        capsys.readouterr()

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in all_rule_codes():
            assert code in out

    def test_cli_list_rules_groups_by_tier(self, capsys):
        lint_main(["--list-rules"])
        out = capsys.readouterr().out
        assert out.index("contracts:") < out.index("dataflow:")
        # Every contracts rule is printed before the dataflow header.
        for code in ("DET001", "INV003"):
            assert out.index(code) < out.index("dataflow:")
        for code in ("SAT001", "UNIT001", "STAT001"):
            assert out.index(code) > out.index("dataflow:")

    def test_cli_json_flag(self, capsys):
        lint_main(["--json", str(FIXTURES / "bad_inv001.py")])
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"INV001": 2}

    def test_cli_select_prefix(self, capsys):
        assert lint_main(["--select", "SAT",
                          str(FIXTURES / "bad_sat001.py")]) == 1
        assert lint_main(["--select", "DET",
                          str(FIXTURES / "bad_sat001.py")]) == 0
        capsys.readouterr()

    def test_cli_sarif_output(self, capsys):
        assert lint_main(["--sarif",
                          str(FIXTURES / "bad_sat001.py")]) == 1
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "SAT001" in rule_ids
        results = run["results"]
        assert results and all(r["ruleId"] == "SAT001" for r in results)
        loc = results[0]["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith("bad_sat001.py")
        assert loc["region"]["startLine"] >= 1

    def test_cli_sanitize_mode(self, capsys):
        assert lint_main(["--sanitize",
                          str(FIXTURES / "good_sat001.py")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dirty"] == 0
        assert payload["sites"] == len(payload["facts"]) > 0
        assert all(f["status"] == "proven" for f in payload["facts"])
        assert lint_main(["--sanitize",
                          str(FIXTURES / "bad_sat001.py")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["dirty"] == 3

    def test_cli_graph_cache_round_trip(self, tmp_path, capsys):
        cache = tmp_path / "graph.json"
        assert lint_main(["--graph-cache", str(cache), str(SRC)]) == 0
        first = json.loads(cache.read_text())
        assert first["version"] == 1 and first["entries"]
        # Second run must hit the cache and reproduce the same verdict.
        assert lint_main(["--graph-cache", str(cache), str(SRC)]) == 0
        assert json.loads(cache.read_text()) == first
        capsys.readouterr()


# ---------------------------------------------------------------------------
# INV003: the schema pin
# ---------------------------------------------------------------------------

class TestConfigSchemaPin:
    def real_sources(self):
        return {
            "config": (SRC / "sim" / "config.py").read_text(),
            "drishti": (SRC / "core" / "drishti.py").read_text(),
        }

    def schema_version(self):
        from repro.experiments.resultcache import CACHE_SCHEMA_VERSION
        return CACHE_SCHEMA_VERSION

    def test_current_tree_matches_pin(self):
        digest = struct_hash_of_sources(self.real_sources())
        assert PINNED_STRUCT_HASHES[self.schema_version()] == digest

    def test_field_addition_without_bump_trips_lint(self):
        """The regression the rule exists for: a new SystemConfig field
        with the schema version left alone must fail."""
        sources = self.real_sources()
        patched = sources["config"].replace(
            "    seed: int = 0\n",
            "    seed: int = 0\n    simulated_new_field: int = 7\n")
        assert patched != sources["config"]
        trees = {"config": ast.parse(patched),
                 "drishti": ast.parse(sources["drishti"])}
        problems = check_config_pin(trees, self.schema_version(),
                                    PINNED_STRUCT_HASHES)
        assert problems and "structure changed" in problems[0]

    def test_field_addition_with_bump_and_repin_passes(self):
        sources = self.real_sources()
        patched = sources["config"].replace(
            "    seed: int = 0\n",
            "    seed: int = 0\n    simulated_new_field: int = 7\n")
        trees = {"config": ast.parse(patched),
                 "drishti": ast.parse(sources["drishti"])}
        new_version = self.schema_version() + 1
        new_pins = dict(PINNED_STRUCT_HASHES)
        new_pins[new_version] = struct_hash(trees)
        assert check_config_pin(trees, new_version, new_pins) == []

    def test_unpinned_version_is_reported(self):
        trees = {"config": ast.parse(self.real_sources()["config"])}
        problems = check_config_pin(trees, 999, PINNED_STRUCT_HASHES)
        assert problems and "no pinned structural hash" in problems[0]

    def test_annotation_change_also_trips(self):
        """Retyping a field (not just adding one) must change the hash:
        canonical_dict serialises values, so a type change can alter
        cache-key semantics silently."""
        sources = self.real_sources()
        patched = sources["config"].replace("    seed: int = 0\n",
                                            "    seed: float = 0\n")
        digest = struct_hash_of_sources(
            {"config": patched, "drishti": sources["drishti"]})
        assert digest != PINNED_STRUCT_HASHES[self.schema_version()]


# ---------------------------------------------------------------------------
# The tree itself
# ---------------------------------------------------------------------------

class TestTreeIsClean:
    def test_src_repro_lints_clean(self):
        """The acceptance gate, in-process: the shipped tree has no
        violations (the CI job runs the same check via the CLI)."""
        result = lint_path(SRC)
        assert result.ok, "\n" + "\n".join(
            v.render() for v in result.violations)
        assert result.files_checked > 100
