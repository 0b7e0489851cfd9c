"""repro-lint: determinism, invariant & soundness static analysis.

An AST-based contract checker (``python -m repro.lint`` / the
``repro-lint`` console script) with a pluggable rule engine.  The
shipped rules, by tier:

**contracts** (syntactic AST checks)

=======  ==========================================================
DET001   no module-level / unseeded ``random`` & ``numpy.random`` use
DET002   no wall-clock or entropy reads in simulator-reachable code
DET003   no unordered set iteration in order-sensitive modules
INV001   ``reset_stats``/``publish_stats`` must come in pairs
INV002   every policy module registered + smoke-matrix covered
INV003   ``SystemConfig`` structure pinned per ``CACHE_SCHEMA_VERSION``
SUP001   suppression comments must still match a finding
=======  ==========================================================

**dataflow** (flow-sensitive, over a CFG + forward dataflow engine)

=======  ==========================================================
SAT001   saturating-counter updates provably clamped or guarded
UNIT001  no cross-unit arithmetic / magic latency literals
STAT001  no dead telemetry (unpublished / never-reset metrics)
=======  ==========================================================

**concurrency** (async/thread/durability protocols, service stack)

=======  ==========================================================
ASY001   no blocking calls inside ``async def`` (event-loop stalls)
ASY002   asyncio primitives off-loop need ``call_soon_threadsafe``
LOCK001  shared attributes need a common lock across entry points
ATOM001  durable job-store writes are tmp + ``os.replace`` atomic
EXC001   broad handlers must not swallow; bus listeners unsubscribe
EVT001   every event name pinned in ``repro.lint.events_pin``
=======  ==========================================================

**interproc** (call graph + bottom-up effect summaries)

=======  ==========================================================
CKEY001  behaviour-affecting config fields are in the cache key
CKEY002  cache-key fields are consumed (no spurious misses)
PAR002   pool-submitted work units are pure (no global state)
=======  ==========================================================

See ``docs/static-analysis.md`` for rule rationale, suppression
syntax (``# repro-lint: disable=CODE``) and how to add a rule.
"""

from repro.lint.rules import (RULE_REGISTRY, Rule, Violation,
                              all_rule_codes, build_rules,
                              expand_codes, register_rule)
from repro.lint.engine import (LintResult, ModuleInfo, ProjectContext,
                               run_lint)
from repro.lint import determinism as _determinism  # registers DET rules
from repro.lint import invariants as _invariants    # registers INV rules
from repro.lint import soundness as _soundness      # SAT001 / UNIT001
from repro.lint import telemetry as _telemetry      # STAT001
from repro.lint import suppress_audit as _suppress  # SUP001
from repro.lint import concurrency as _concurrency  # ASY001/ASY002/LOCK001
from repro.lint import durability as _durability    # ATOM001/EXC001
from repro.lint import events as _events            # EVT001
from repro.lint import summaries as _summaries      # CKEY001/CKEY002/PAR002
from repro.lint.reporters import (render_human, render_json,
                                  render_sarif)

__all__ = [
    "RULE_REGISTRY",
    "Rule",
    "Violation",
    "LintResult",
    "ModuleInfo",
    "ProjectContext",
    "all_rule_codes",
    "build_rules",
    "expand_codes",
    "register_rule",
    "run_lint",
    "render_human",
    "render_json",
    "render_sarif",
]
