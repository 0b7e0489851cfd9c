"""Tests for the interprocedural tier of repro-lint (CKEY/PAR002).

Covers: the per-rule fixture corpus (bad must exit 1 with exactly its
rule, good and suppressed must be clean), call-graph edge resolution
with asserted edge sets (aliased imports, wraps-style decorators,
subclass self-dispatch, bound-method hoists, registry dispatch), the
CFG node feed and SCC condensation the summary engine sits on, the
effect-summary lattice over recursion cycles, the cache-key pin
round-trip (library + CLI), the shared per-run call-graph/analysis
caches, the ``--timings-budget-ms`` gate, the cache-key surface of
``SystemConfig`` itself, the seeded CKEY001 mutation check, and
tier-4 cleanliness of the tree.
"""

import ast
import pathlib
import shutil

import pytest

from repro.lint import build_rules, run_lint
from repro.lint.__main__ import main as lint_main
from repro.lint.cfg import build_cfg, iter_cfg_nodes
from repro.lint.ckey_pin import (PINNED_EXCLUDED_FIELDS,
                                 PINNED_UNREAD_FIELDS)
from repro.lint.dataflow import strongly_connected
from repro.lint.engine import build_project
from repro.lint.rules import RULE_REGISTRY
from repro.lint.summaries import (collect_ckey_pins,
                                  collect_key_reports,
                                  render_ckey_pin, summary_index)
from repro.sim.config import CacheConfig, SystemConfig

REPO = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "lint_fixtures"
SRC = REPO / "src" / "repro"

TIER4_FAMILIES = ["CKEY", "PAR"]


def lint_path(path, select=None):
    return run_lint([path], build_rules(select=select or []))


def codes(result):
    return {v.code for v in result.violations}


def build_pkg(tmp_path, files):
    """A throwaway package ``pkg`` from {filename: source}."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    for name, text in files.items():
        (pkg / name).write_text(text)
    project, errors = build_project([pkg])
    assert not errors, [e.render() for e in errors]
    return project


# ---------------------------------------------------------------------------
# Fixture corpus
# ---------------------------------------------------------------------------

class TestTier4Fixtures:
    @pytest.mark.parametrize("fixture,expected", [
        ("bad_ckey001.py", "CKEY001"),
        ("bad_ckey002.py", "CKEY002"),
        ("bad_par002.py", "PAR002"),
    ])
    def test_bad_fixture_trips_only_its_rule(self, fixture, expected):
        result = lint_path(FIXTURES / fixture)
        assert not result.ok
        assert codes(result) == {expected}

    @pytest.mark.parametrize("fixture", [
        "good_ckey001.py", "good_ckey002.py", "good_par002.py",
    ])
    def test_good_fixture_is_clean(self, fixture):
        result = lint_path(FIXTURES / fixture)
        assert result.ok
        assert result.violations == []

    @pytest.mark.parametrize("fixture", [
        "suppressed_ckey001.py", "suppressed_ckey002.py",
        "suppressed_par002.py",
    ])
    def test_suppressed_fixture_is_clean(self, fixture):
        result = lint_path(FIXTURES / fixture)
        assert result.ok, [v.render() for v in result.violations]

    def test_par002_reports_each_module_level_site_once(self):
        # Three effect sites in the work units' own bodies: a subscript
        # write, a mutating call and a ``global`` declaration.  Each is
        # reported once, by PAR002 alone.
        fixture = FIXTURES / "bad_par001.py"
        marked = [n for n, text in enumerate(
            fixture.read_text().splitlines(), start=1)
            if "# PAR002:" in text]
        assert len(marked) == 3
        result = lint_path(fixture)
        assert codes(result) == {"PAR002"}
        assert sorted(v.line for v in result.violations) == marked
        messages = " ".join(v.message for v in result.violations)
        for name in ("RESULTS", "TOTALS", "TALLY"):
            assert name in messages


# ---------------------------------------------------------------------------
# Call-graph resolution (asserted edge sets)
# ---------------------------------------------------------------------------

class TestCallGraphEdges:
    def test_aliased_import_call_resolves(self, tmp_path):
        project = build_pkg(tmp_path, {
            "util.py": "def helper():\n    return 1\n",
            "a.py": ("import pkg.util as u\n"
                     "\n"
                     "\n"
                     "def caller():\n"
                     "    return u.helper()\n"),
        })
        graph = project.callgraph()
        assert graph.callees(("pkg.a", "caller")) == frozenset({
            ("pkg.util", "helper")})

    def test_from_import_and_decorator_edges(self, tmp_path):
        project = build_pkg(tmp_path, {
            "deco.py": ("import functools\n"
                        "\n"
                        "\n"
                        "def logged(fn):\n"
                        "    @functools.wraps(fn)\n"
                        "    def inner(*args, **kwargs):\n"
                        "        return fn(*args, **kwargs)\n"
                        "    return inner\n"),
            "b.py": ("from pkg.deco import logged\n"
                     "\n"
                     "\n"
                     "@logged\n"
                     "def work():\n"
                     "    return 2\n"),
        })
        graph = project.callgraph()
        # The decorated function edges into its project-local
        # decorator, so the wrapper body is walked, not skipped.
        assert graph.callees(("pkg.b", "work")) == frozenset({
            ("pkg.deco", "logged")})

    def test_self_dispatch_includes_subclass_overrides(self, tmp_path):
        project = build_pkg(tmp_path, {
            "shapes.py": ("class Base:\n"
                          "    def area(self):\n"
                          "        return self.side() * self.side()\n"
                          "\n"
                          "    def side(self):\n"
                          "        return 1\n"
                          "\n"
                          "\n"
                          "class Square(Base):\n"
                          "    def side(self):\n"
                          "        return 2\n"),
        })
        graph = project.callgraph()
        # `self.side()` in Base.area may run Square's override when
        # the receiver is a subclass instance.
        assert graph.callees(("pkg.shapes", "Base.area")) == frozenset({
            ("pkg.shapes", "Base.side"),
            ("pkg.shapes", "Square.side")})

    def test_bound_method_hoist_keeps_the_edge(self, tmp_path):
        project = build_pkg(tmp_path, {
            "hoist.py": ("class Hier:\n"
                         "    def access(self):\n"
                         "        return 1\n"
                         "\n"
                         "\n"
                         "class Sim:\n"
                         "    def __init__(self):\n"
                         "        self.h = Hier()\n"
                         "\n"
                         "    def run(self):\n"
                         "        fn = self.h.access\n"
                         "        return fn()\n"),
        })
        graph = project.callgraph()
        assert ("pkg.hoist", "Hier.access") in graph.callees(
            ("pkg.hoist", "Sim.run"))

    def test_registry_dispatch_fans_out_to_the_pool(self, tmp_path):
        project = build_pkg(tmp_path, {
            "reg.py": ("class LRU:\n"
                       "    def __init__(self):\n"
                       "        self.age = 0\n"
                       "\n"
                       "\n"
                       "class FIFO:\n"
                       "    def __init__(self):\n"
                       "        self.order = 0\n"
                       "\n"
                       "\n"
                       "POLICY_REGISTRY = {'lru': LRU, 'fifo': FIFO}\n"
                       "\n"
                       "\n"
                       "def make(entry):\n"
                       "    return entry.policy_class()\n"),
        })
        graph = project.callgraph()
        assert graph.registry_pool == {("pkg.reg", "LRU.__init__"),
                                       ("pkg.reg", "FIFO.__init__")}
        assert graph.callees(("pkg.reg", "make")) == frozenset(
            graph.registry_pool)


# ---------------------------------------------------------------------------
# Substrate: CFG node feed + SCC condensation
# ---------------------------------------------------------------------------

class TestSummarySubstrate:
    def test_iter_cfg_nodes_yields_each_node_once(self):
        fn = ast.parse(
            "def f(x):\n"
            "    if x.a:\n"
            "        with x.b() as h:\n"
            "            h.c()\n"
            "    return x.d\n").body[0]
        nodes = list(iter_cfg_nodes(build_cfg(fn)))
        ids = [id(n) for n in nodes]
        assert len(ids) == len(set(ids))
        attrs = {n.attr for n in nodes
                 if isinstance(n, ast.Attribute)}
        # branch tests (edge assumptions), with-items and plain
        # statements all feed the walk.
        assert {"a", "b", "c", "d"} <= attrs

    def test_scc_emits_callees_first(self):
        order = strongly_connected({
            1: frozenset({2}), 2: frozenset({1, 3}), 3: frozenset()})
        assert order[0] == [3]
        assert sorted(order[1]) == [1, 2]

    def test_recursion_cycle_shares_transitive_reads(self, tmp_path):
        project = build_pkg(tmp_path, {
            "rec.py": ("def f(x):\n"
                       "    return g(x.alpha)\n"
                       "\n"
                       "\n"
                       "def g(x):\n"
                       "    if x:\n"
                       "        return f(x.beta)\n"
                       "    return 0\n"),
        })
        index = summary_index(project)
        reads_f = index.transitive_reads(("pkg.rec", "f"))
        reads_g = index.transitive_reads(("pkg.rec", "g"))
        assert reads_f == reads_g
        assert {"alpha", "beta"} <= reads_f


# ---------------------------------------------------------------------------
# Cache-key pin
# ---------------------------------------------------------------------------

class TestCkeyPin:
    def test_collected_pins_match_pin_exactly(self):
        project, errors = build_project([SRC])
        assert not errors
        excluded_read, unread = collect_ckey_pins(project)
        assert excluded_read == set(PINNED_EXCLUDED_FIELDS)
        assert unread == set(PINNED_UNREAD_FIELDS)

    def test_render_round_trips_the_pin_module(self):
        pin_path = SRC / "lint" / "ckey_pin.py"
        rendered = render_ckey_pin(set(PINNED_EXCLUDED_FIELDS),
                                   set(PINNED_UNREAD_FIELDS))
        assert rendered == pin_path.read_text(encoding="utf-8")

    def test_cli_ckey_pin_round_trips(self, capsys):
        exit_code = lint_main(["--ckey-pin", str(SRC)])
        captured = capsys.readouterr()
        assert exit_code == 0
        pin_path = SRC / "lint" / "ckey_pin.py"
        assert captured.out == pin_path.read_text(encoding="utf-8")

    def test_sim_kernel_is_the_only_pinned_exclusion(self):
        # The exclusion is deliberate: backends are golden-pinned
        # bit-identical, so sharing cached results across them is the
        # point of the exclusion (see docs/performance.md).
        assert set(PINNED_EXCLUDED_FIELDS) == {"sim_kernel"}
        assert set(PINNED_UNREAD_FIELDS) == set()


# ---------------------------------------------------------------------------
# Shared caches + the timing budget gate
# ---------------------------------------------------------------------------

class TestEngineSharing:
    def test_callgraph_built_once_across_tier4_rules(self):
        # bad_par002 exercises all three rules' graph accesses (CKEY
        # scans for canonical classes, PAR002 has pool roots).
        project, errors = build_project([FIXTURES / "bad_par002.py"])
        assert not errors
        for code in ("CKEY001", "CKEY002", "PAR002"):
            list(RULE_REGISTRY[code]().check_project(project))
        assert project.graph_stats["builds"] == 1
        assert project.graph_stats["hits"] >= 2
        assert "tier4.summaries" in project.analysis_cache
        assert "tier4.ckey" in project.analysis_cache

    def test_key_reports_cached_per_run(self):
        project, errors = build_project([FIXTURES / "good_ckey001.py"])
        assert not errors
        first = collect_key_reports(project)
        assert collect_key_reports(project) is first

    def test_timings_budget_gate(self, capsys):
        clean = str(FIXTURES / "good_ckey001.py")
        assert lint_main([clean, "--timings-budget-ms", "60000"]) == 0
        capsys.readouterr()
        assert lint_main([clean, "--timings-budget-ms", "1e-9"]) == 1
        captured = capsys.readouterr()
        assert "over the" in captured.err


# ---------------------------------------------------------------------------
# SystemConfig's own key surface
# ---------------------------------------------------------------------------

class TestSystemConfigKeySurface:
    def test_mshr_counts_do_not_split_the_cache_key(self):
        # Regression for the CKEY002 finding: MSHR counts are not
        # consumed by the timing model, so two configs differing only
        # in them must share a fingerprint (pre-fix they did not).
        base = SystemConfig()
        tweaked = SystemConfig(
            l1=CacheConfig(sets=64, ways=12, latency=5, mshrs=99),
            l2=CacheConfig(sets=1024, ways=8, latency=15, mshrs=7))
        assert base.fingerprint() == tweaked.fingerprint()
        assert "mshrs" not in base.canonical_dict()["l1"]
        assert "mshrs" not in base.canonical_dict()["l2"]

    def test_geometry_still_splits_the_cache_key(self):
        base = SystemConfig()
        other = SystemConfig(
            l1=CacheConfig(sets=128, ways=12, latency=5, mshrs=16))
        assert base.fingerprint() != other.fingerprint()

    def test_sim_kernel_still_excluded(self):
        auto = SystemConfig(sim_kernel="auto")
        ref = SystemConfig(sim_kernel="reference")
        assert auto.fingerprint() == ref.fingerprint()


# ---------------------------------------------------------------------------
# Seeded mutation: CKEY001 must catch a forgotten key entry
# ---------------------------------------------------------------------------

def _mutated_tree(tmp_path, include_in_key):
    """Copy ``src/repro`` and add a behaviour-affecting field
    ``spec_window`` (declared + read by ``Simulator.__init__``); with
    ``include_in_key=False`` the canonical dict drops it."""
    target = tmp_path / "repro"
    shutil.copytree(SRC, target,
                    ignore=shutil.ignore_patterns("__pycache__"))
    config = target / "sim" / "config.py"
    text = config.read_text(encoding="utf-8")
    anchor = '    sim_kernel: str = "auto"\n'
    assert anchor in text
    text = text.replace(anchor,
                        anchor + "    spec_window: int = 4\n")
    if not include_in_key:
        pop = '        data.pop("sim_kernel", None)\n'
        assert pop in text
        text = text.replace(
            pop, pop + '        data.pop("spec_window", None)\n')
    config.write_text(text, encoding="utf-8")
    sim = target / "sim" / "simulator.py"
    stext = sim.read_text(encoding="utf-8")
    read_anchor = "        self.config = config\n"
    assert read_anchor in stext
    stext = stext.replace(
        read_anchor,
        read_anchor + "        self._spec_window = "
                      "config.spec_window\n", 1)
    sim.write_text(stext, encoding="utf-8")
    return target


class TestSeededMutation:
    def test_forgotten_key_entry_is_flagged(self, tmp_path):
        target = _mutated_tree(tmp_path, include_in_key=False)
        result = lint_path(target, select=["CKEY"])
        assert not result.ok
        assert codes(result) == {"CKEY001"}
        assert any("spec_window" in v.message
                   for v in result.violations)

    def test_keyed_field_passes(self, tmp_path):
        target = _mutated_tree(tmp_path, include_in_key=True)
        result = lint_path(target, select=["CKEY"])
        assert result.ok, [v.render() for v in result.violations]


# ---------------------------------------------------------------------------
# The tree itself
# ---------------------------------------------------------------------------

class TestTreeIsCleanTier4:
    def test_src_repro_is_clean_under_tier4(self):
        result = run_lint([SRC], build_rules(select=TIER4_FAMILIES))
        assert result.ok, [v.render() for v in result.violations]
