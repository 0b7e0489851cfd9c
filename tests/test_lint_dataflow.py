"""Tests for the flow-sensitive (dataflow) lint tier.

Covers the CFG builder, the forward dataflow engine, the interval
lattice, the SAT001 boundedness analysis pattern-by-pattern, the
UNIT001/STAT001/PAR002 rule logic on synthetic modules, the
pooled-vs-serial divergence regression PAR002 exists to prevent, and
the runtime sanitizer (``repro.obs.sanitize``).
"""

import ast
import importlib.util
import json
import subprocess
import sys
import textwrap

import pytest

from repro.lint.cfg import build_cfg
from repro.lint.dataflow import (ForwardAnalysis, Interval, IntervalEnv,
                                 run_forward)
from repro.lint.rules import build_rules, expand_codes
from repro.lint.engine import run_lint
from repro.lint.soundness import (analyze_function, counter_update_sites,
                                  sanitize_facts)
from repro.obs.sanitize import SaturationError, check_range


def fn_of(source, name=None):
    tree = ast.parse(textwrap.dedent(source))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and \
                (name is None or node.name == name):
            return node
    raise AssertionError(f"no function {name!r} in source")


def lint_source(tmp_path, source, select=None, filename="mod.py"):
    target = tmp_path / filename
    target.write_text(textwrap.dedent(source))
    return run_lint([target], build_rules(select=select or []))


def codes(result):
    return {v.code for v in result.violations}


# ---------------------------------------------------------------------------
# CFG builder
# ---------------------------------------------------------------------------

class TestCFG:
    def test_linear_function_is_entry_body_exit(self):
        cfg = build_cfg(fn_of("def f():\n    x = 1\n    y = x\n"))
        body = [b for b in cfg.blocks.values() if b.stmts]
        assert len(body) == 1 and len(body[0].stmts) == 2
        assert any(e.dst == cfg.exit for e in cfg.edges)

    def test_if_edges_carry_assumptions(self):
        cfg = build_cfg(fn_of("""
            def f(x):
                if x < 3:
                    y = 1
                else:
                    y = 2
                return y
            """))
        assumed = [e for e in cfg.edges if e.assumption is not None]
        truths = sorted(e.assumption.truth for e in assumed)
        assert truths == [False, True]
        assert all(isinstance(e.assumption.test, ast.Compare)
                   for e in assumed)

    def test_while_has_back_edge(self):
        cfg = build_cfg(fn_of("""
            def f(n):
                i = 0
                while i < n:
                    i = i + 1
                return i
            """))
        # Some edge must point "backwards" to an earlier block id.
        assert any(e.src > e.dst and e.dst != cfg.exit
                   for e in cfg.edges)

    def test_for_head_block_holds_the_for_node(self):
        cfg = build_cfg(fn_of("""
            def f(xs):
                for x in xs:
                    y = x
                return y
            """))
        heads = [b for b in cfg.blocks.values()
                 if any(isinstance(s, ast.For) for s in b.stmts)]
        assert len(heads) == 1

    def test_assert_false_edge_goes_to_exit(self):
        cfg = build_cfg(fn_of("def f(x):\n    assert x >= 0\n    return x\n"))
        false_edges = [e for e in cfg.edges
                       if e.assumption is not None
                       and not e.assumption.truth]
        assert false_edges and all(e.dst == cfg.exit
                                   for e in false_edges)

    def test_break_targets_loop_exit(self):
        cfg = build_cfg(fn_of("""
            def f(xs):
                for x in xs:
                    if x:
                        break
                return 0
            """))
        # No crash and the graph stays connected to exit.
        assert any(e.dst == cfg.exit for e in cfg.edges)

    def test_try_body_edges_into_handler(self):
        cfg = build_cfg(fn_of("""
            def f(x):
                try:
                    y = x
                except ValueError:
                    y = 0
                return y
            """))
        handler_blocks = [b.id for b in cfg.blocks.values()
                          if any(isinstance(s, ast.Assign) and
                                 ast.unparse(s) == "y = 0"
                                 for s in b.stmts)]
        assert handler_blocks
        assert any(e.dst == handler_blocks[0] for e in cfg.edges)

    def test_rejects_non_function_nodes(self):
        with pytest.raises(TypeError):
            build_cfg(ast.parse("x = 1"))


# ---------------------------------------------------------------------------
# Forward dataflow engine
# ---------------------------------------------------------------------------

class _AssignCount(ForwardAnalysis):
    """Toy analysis: count assignments along the longest-join path."""

    def initial(self):
        return 0

    def join(self, a, b):
        return max(a, b)

    def transfer_stmt(self, stmt, fact):
        return fact + 1 if isinstance(stmt, ast.Assign) else fact


class TestRunForward:
    def test_facts_propagate_and_join(self):
        cfg = build_cfg(fn_of("""
            def f(c):
                a = 1
                if c:
                    b = 2
                    d = 3
                return a
            """))
        facts = run_forward(cfg, _AssignCount())
        exit_fact = facts[cfg.exit]
        # a=1 always; b/d only on the taken branch; max-join keeps 3.
        assert exit_fact == 3

    def test_unreached_blocks_stay_none(self):
        cfg = build_cfg(fn_of("""
            def f():
                return 1
                x = 2
            """))
        facts = run_forward(cfg, _AssignCount())
        assert None in facts.values()

    def test_loop_reaches_fixpoint(self):
        cfg = build_cfg(fn_of("""
            def f(n):
                total = 0
                while n:
                    total = total + 1
                return total
            """))
        facts = run_forward(cfg, _AssignCount())
        assert facts[cfg.exit] is not None


# ---------------------------------------------------------------------------
# Interval lattice
# ---------------------------------------------------------------------------

class TestInterval:
    def test_const_join_meet(self):
        a, b = Interval.const(2), Interval.const(7)
        assert a.join(b) == Interval(2, 7)
        assert a.meet(b) == Interval.BOTTOM
        assert Interval(0, 5).meet(Interval(3, 9)) == Interval(3, 5)

    def test_bottom_and_top_are_identities(self):
        x = Interval(1, 4)
        assert Interval.BOTTOM.join(x) == x
        assert Interval.TOP.meet(x) == x
        assert x.meet(Interval.BOTTOM) == Interval.BOTTOM

    def test_widen_jumps_to_infinity(self):
        old, new = Interval(0, 3), Interval(0, 4)
        widened = old.widen(new)
        assert widened.lo == 0 and widened.hi is None
        # Stable end-points survive widening.
        assert Interval(0, 3).widen(Interval(1, 3)) == Interval(0, 3)

    def test_shift_and_clamp(self):
        assert Interval(0, 7).shift(1) == Interval(1, 8)
        assert Interval(1, 8).clamp_hi(7) == Interval(1, 7)
        assert Interval(-1, 7).clamp_lo(0) == Interval(0, 7)
        assert Interval(None, 5).shift(2) == Interval(None, 7)

    def test_contains(self):
        assert Interval(0, 7).contains(Interval(0, 7))
        assert Interval(0, 7).contains(Interval(2, 3))
        assert not Interval(0, 7).contains(Interval(0, 8))
        assert Interval.TOP.contains(Interval(0, 7))
        assert Interval(0, 7).contains(Interval.BOTTOM)

    def test_saturating_counter_proof_shape(self):
        """The SAT001 soundness statement on the concrete domain: a
        3-bit counter updated as ``min(x + 1, 7)`` stays in [0, 7]."""
        width = Interval(0, 7)
        x = Interval(0, 7)
        assert width.contains(x.shift(1).clamp_hi(7))
        assert not width.contains(x.shift(1))

    def test_env_join_and_widen(self):
        a = IntervalEnv({"x": Interval(0, 3), "y": Interval(1, 1)})
        b = IntervalEnv({"x": Interval(2, 5)})
        joined = a.join(b)
        assert joined.get("x") == Interval(0, 5)
        assert joined.get("y") == Interval.TOP  # dropped: unknown in b
        widened = a.widen(IntervalEnv({"x": Interval(0, 9)}))
        assert widened.get("x") == Interval(0, None)

    def test_env_set_get_drop(self):
        env = IntervalEnv().set("x", Interval(0, 3))
        assert env.get("x") == Interval(0, 3)
        assert env.get("missing") == Interval.TOP
        assert env.drop("x").get("x") == Interval.TOP
        assert env.set("x", Interval.TOP) == IntervalEnv()


# ---------------------------------------------------------------------------
# SAT001 analysis patterns
# ---------------------------------------------------------------------------

class TestSaturationAnalysis:
    def dirty_lines(self, source, name=None):
        return {line for _k, line, _c, _d
                in analyze_function(fn_of(source, name))}

    def test_unguarded_increment_is_dirty(self):
        assert self.dirty_lines("""
            def f(self):
                self._ctr += 1
            """)

    def test_strict_guard_excuses_increment(self):
        assert not self.dirty_lines("""
            def f(self):
                if self._ctr < self.counter_max:
                    self._ctr += 1
            """)

    def test_non_strict_guard_does_not_excuse(self):
        # `<=` admits ctr == max before the +=: still overflows.
        assert self.dirty_lines("""
            def f(self):
                if self._ctr <= self.counter_max:
                    self._ctr += 1
            """)

    def test_clamp_overwrite_discharges(self):
        assert not self.dirty_lines("""
            def f(self):
                self._ctr = min(self._ctr + 1, self.counter_max)
            """)

    def test_corrective_branch_discharges(self):
        assert not self.dirty_lines("""
            def f(self):
                self._ctr += 1
                if self._ctr > self.counter_max:
                    self._ctr = self.counter_max
            """)

    def test_trailing_assert_discharges(self):
        assert not self.dirty_lines("""
            def f(self):
                self._ctr += 1
                assert self._ctr <= self.counter_max
            """)

    def test_guard_on_other_counter_does_not_excuse(self):
        assert self.dirty_lines("""
            def f(self):
                if self._psel < self.counter_max:
                    self._ctr += 1
            """)

    def test_index_reassignment_kills_the_bound(self):
        # The guard proves rrpv[way] < MAX for the *old* way.
        assert self.dirty_lines("""
            def f(self, rrpv, positions):
                way = 0
                if rrpv[way] < 7:
                    way = self.pick()
                    rrpv[way] += 1
            """)

    def test_decrement_needs_lower_guard(self):
        assert not self.dirty_lines("""
            def f(self):
                if self._ctr > 0:
                    self._ctr -= 1
            """)
        assert self.dirty_lines("""
            def f(self):
                self._ctr -= 1
            """)

    def test_compound_and_guard_decomposes(self):
        assert not self.dirty_lines("""
            def f(self, hit):
                if hit and self._ctr < self.counter_max:
                    self._ctr += 1
            """)

    def test_non_counter_names_ignored(self):
        assert not counter_update_sites(fn_of("""
            def f(self):
                self.lookups += 1
                self.clock += 1
            """))

    def test_x_equals_x_plus_one_form(self):
        sites = counter_update_sites(fn_of("""
            def f(self, rrpv, way):
                rrpv[way] = rrpv[way] + 1
            """))
        assert len(sites) == 1

    def test_sanitize_facts_statuses(self):
        tree = ast.parse(textwrap.dedent("""
            class P:
                def good(self):
                    if self._ctr < self.counter_max:
                        self._ctr += 1

                def bad(self):
                    self._ctr += 1
            """))
        facts = sanitize_facts(tree, "p.py")
        by_fn = {f["function"]: f["status"] for f in facts}
        assert by_fn == {"good": "proven", "bad": "dirty"}
        assert all(f["counter"] == "self._ctr" for f in facts)


# ---------------------------------------------------------------------------
# UNIT001 / STAT001 on synthetic modules
# ---------------------------------------------------------------------------

class TestUnitRule:
    def test_mixed_units_flagged(self, tmp_path):
        result = lint_source(tmp_path, """
            def f(busy_cycles, retired_instrs):
                return busy_cycles - retired_instrs
            """, select=["UNIT001"])
        assert len(result.violations) == 1
        assert "cycles" in result.violations[0].message
        assert "instructions" in result.violations[0].message

    def test_same_units_and_rates_pass(self, tmp_path):
        result = lint_source(tmp_path, """
            def f(busy_cycles, stall_cycles, avg_latency):
                per_instr_rate = avg_latency + 1
                return busy_cycles + stall_cycles
            """, select=["UNIT001"])
        assert result.ok

    def test_magic_latency_literal_flagged(self, tmp_path):
        result = lint_source(tmp_path, """
            def f(read_latency):
                return read_latency + 12
            """, select=["UNIT001"])
        assert len(result.violations) == 1
        assert "magic literal 12" in result.violations[0].message

    def test_one_tick_adjustment_allowed(self, tmp_path):
        result = lint_source(tmp_path, """
            def f(read_latency):
                return read_latency + 1
            """, select=["UNIT001"])
        assert result.ok

    def test_config_call_literals_allowed(self, tmp_path):
        result = lint_source(tmp_path, """
            def build(NOCConfig):
                return NOCConfig(hop_latency=4)
            """, select=["UNIT001"])
        assert result.ok


class TestDeadTelemetryRule:
    def test_register_many_counts_as_publishing(self, tmp_path):
        result = lint_source(tmp_path, """
            class C:
                def tick(self):
                    self.stats.lookups += 1

                def publish_stats(self, registry):
                    registry.register_many("c", self, ["lookups"])

                def reset_stats(self):
                    self.stats = object()
            """, select=["STAT001"])
        assert result.ok, [v.render() for v in result.violations]

    def test_derived_property_vouches_for_raw_tally(self, tmp_path):
        result = lint_source(tmp_path, """
            class C:
                def tick(self, d):
                    self.total_wait += d

                @property
                def avg_wait(self):
                    return self.total_wait / 2

                def publish_stats(self, registry):
                    registry.register("c.avg", lambda: self.avg_wait)

                def reset_stats(self):
                    self.total_wait = 0
            """, select=["STAT001"])
        assert result.ok, [v.render() for v in result.violations]

    def test_unpublished_tally_flagged(self, tmp_path):
        result = lint_source(tmp_path, """
            class C:
                def tick(self):
                    self.drops += 1

                def publish_stats(self, registry):
                    return None

                def reset_stats(self):
                    self.drops = 0
            """, select=["STAT001"])
        assert len(result.violations) == 1
        assert "never exposed" in result.violations[0].message

    def test_classes_without_publish_are_exempt(self, tmp_path):
        result = lint_source(tmp_path, """
            class FSM:
                def tick(self):
                    self.phase += 1
            """, select=["STAT001"])
        assert result.ok

    def test_discarded_owned_metric_flagged(self, tmp_path):
        result = lint_source(tmp_path, """
            def setup(registry):
                registry.counter("engine.drops")
            """, select=["STAT001"])
        assert len(result.violations) == 1
        assert "discarded" in result.violations[0].message


# ---------------------------------------------------------------------------
# PAR002: the pooled-vs-serial regression
# ---------------------------------------------------------------------------

IMPURE_WORK_UNIT = """
from concurrent.futures import ProcessPoolExecutor

SEEN = []


def work(x):
    SEEN.append(x)
    return x * x + len(SEEN)


def run_serial(xs):
    return [work(x) for x in xs]


def run_pooled(xs, pool):
    return [pool.submit(work, x).result() for x in xs]
"""


def load_module_copy(path, name):
    """Fresh module instance from *path* — its own globals, exactly
    what a pool worker process sees after fork/exec."""
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestPoolPurity:
    def test_planted_impurity_diverges_and_is_detected(self, tmp_path):
        """The regression PAR002 encodes: a work unit leaning on
        module-level state returns different values serially (one
        accumulating module) than pooled (every worker starts from a
        fresh module copy) — and the lint catches it statically."""
        target = tmp_path / "planted.py"
        target.write_text(IMPURE_WORK_UNIT)

        serial_mod = load_module_copy(target, "planted_serial")
        serial = serial_mod.run_serial([2, 3, 4])

        pooled = []
        for i, x in enumerate([2, 3, 4]):
            worker = load_module_copy(target, f"planted_worker_{i}")
            pooled.append(worker.work(x))

        assert serial != pooled  # len(SEEN) drifts only serially

        result = run_lint([target], build_rules(select=["PAR002"]))
        assert not result.ok
        messages = " ".join(v.message for v in result.violations)
        assert "SEEN" in messages

    def test_transitive_callee_impurity_detected(self, tmp_path):
        result = lint_source(tmp_path, """
            from concurrent.futures import ProcessPoolExecutor

            TALLY = {}


            def helper(x):
                TALLY[x] = x
                return x


            def work(x):
                return helper(x) + 1


            def run(xs, pool):
                return [pool.submit(work, x) for x in xs]
            """, select=["PAR002"])
        assert not result.ok
        assert "TALLY" in result.violations[0].message

    def test_environ_read_detected(self, tmp_path):
        result = lint_source(tmp_path, """
            import os


            def work(x):
                return int(os.getenv("SCALE", "1")) * x


            def run(xs, pool):
                return [pool.submit(work, x) for x in xs]
            """, select=["PAR002"])
        assert not result.ok
        assert "os.environ" in result.violations[0].message

    def test_pure_work_unit_passes(self, tmp_path):
        result = lint_source(tmp_path, """
            def work(x):
                acc = []
                for i in range(x):
                    acc.append(i)
                return sum(acc)


            def run(xs, pool):
                return [pool.submit(work, x) for x in xs]
            """, select=["PAR002"])
        assert result.ok, [v.render() for v in result.violations]

    def test_result_neutral_env_read_is_exempt(self, tmp_path):
        """REPRO_SIM_KERNEL selects between bit-identical backends, so
        a worker reading it cannot make pooled and serial runs diverge
        — the literal-keyed read is allowlisted."""
        result = lint_source(tmp_path, """
            import os


            def work(x):
                kernel = os.environ.get("REPRO_SIM_KERNEL")
                return (x, kernel == "vector")


            def run(xs, pool):
                return [pool.submit(work, x) for x in xs]
            """, select=["PAR002"])
        assert result.ok, [v.render() for v in result.violations]

    def test_computed_env_key_stays_flagged(self, tmp_path):
        """Only a *literal* allowlisted key is exempt: a computed key
        could name any variable, so the read stays a violation."""
        result = lint_source(tmp_path, """
            import os

            KEY = "REPRO_SIM_KERNEL"


            def work(x):
                return (x, os.environ.get(KEY))


            def run(xs, pool):
                return [pool.submit(work, x) for x in xs]
            """, select=["PAR002"])
        assert not result.ok
        assert "os.environ" in result.violations[0].message

    def test_non_allowlisted_literal_env_key_stays_flagged(self, tmp_path):
        result = lint_source(tmp_path, """
            import os


            def work(x):
                return x * int(os.environ.get("REPRO_SWEEP_WORKERS", "1"))


            def run(xs, pool):
                return [pool.submit(work, x) for x in xs]
            """, select=["PAR002"])
        assert not result.ok
        assert "os.environ" in result.violations[0].message


# ---------------------------------------------------------------------------
# Rule-code prefix expansion
# ---------------------------------------------------------------------------

class TestExpandCodes:
    def test_exact_prefix_and_case(self):
        assert expand_codes(["SAT"]) == ["SAT001"]
        assert expand_codes(["det"]) == ["DET001", "DET002", "DET003"]
        assert expand_codes(["STAT001"]) == ["STAT001"]

    def test_unknown_token_raises(self):
        with pytest.raises(ValueError):
            expand_codes(["NOPE"])


# ---------------------------------------------------------------------------
# Runtime sanitizer
# ---------------------------------------------------------------------------

class TestRuntimeSanitizer:
    def test_check_range_passes_in_bounds(self):
        assert check_range(3, 0, 7, "ctr") == 3
        assert check_range(0, 0, 7, "ctr") == 0
        assert check_range(7, 0, 7, "ctr") == 7

    def test_check_range_raises_out_of_bounds(self):
        with pytest.raises(SaturationError, match="ctr"):
            check_range(8, 0, 7, "ctr")
        with pytest.raises(SaturationError):
            check_range(-1, 0, 7, "ctr")

    def test_none_bounds_are_unbounded(self):
        assert check_range(10**9, 0, None, "big") == 10**9
        assert check_range(-10**9, None, 0, "small") == -10**9

    def test_saturation_error_is_assertion_error(self):
        assert issubclass(SaturationError, AssertionError)

    def test_env_var_arms_the_module(self, tmp_path):
        probe = ("import repro.obs.sanitize as s; "
                 "print(int(s.SANITIZE))")
        for env_val, expect in (("1", "1"), ("", "0"), ("0", "0")):
            out = subprocess.run(
                [sys.executable, "-c", probe],
                env={"PYTHONPATH": "src", "REPRO_SANITIZE": env_val,
                     "PATH": "/usr/bin:/bin"},
                cwd=str(__import__("pathlib").Path(__file__).parent.parent),
                capture_output=True, text=True, check=True)
            assert out.stdout.strip() == expect, env_val

    def test_sanitized_policy_update_trips_on_planted_overflow(self):
        """End-to-end: arm the sanitizer in-process and drive an SRRIP
        aging step with a corrupted RRPV — check_range must trip."""
        from repro.obs import sanitize
        old = sanitize.SANITIZE
        try:
            sanitize.SANITIZE = True
            with pytest.raises(SaturationError):
                sanitize.check_range(9, 0, 7, "srrip.rrpv")
        finally:
            sanitize.SANITIZE = old


# ---------------------------------------------------------------------------
# SARIF end-to-end (CLI covered in test_lint.py; here: content checks)
# ---------------------------------------------------------------------------

class TestSarifContent:
    def test_tier_recorded_in_rule_properties(self, tmp_path):
        from repro.lint.reporters import render_sarif
        result = lint_source(tmp_path, """
            class P:
                def f(self):
                    self._ctr += 1
            """, select=["SAT001"])
        sarif = json.loads(render_sarif(result))
        rules = {r["id"]: r for r in
                 sarif["runs"][0]["tool"]["driver"]["rules"]}
        assert rules["SAT001"]["properties"]["tier"] == "dataflow"
        assert sarif["runs"][0]["results"][0]["level"] == "error"
