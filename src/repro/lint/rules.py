"""Rule framework for ``repro-lint``.

A rule is a class with a unique ``code`` (``DET001`` …) registered in
:data:`RULE_REGISTRY` via :func:`register_rule`.  Rules come in two
granularities:

* :meth:`Rule.check_module` — called once per parsed module; most
  rules (RNG hygiene, wall-clock calls, set iteration, stats-method
  pairing) live here.
* :meth:`Rule.check_project` — called once per lint run with the full
  :class:`~repro.lint.engine.ProjectContext`; cross-file contracts
  (policy-registry coverage, the ``SystemConfig`` structural pin) live
  here.

Every violation carries the file, line and column it anchors to, so
inline ``# repro-lint: disable=CODE`` suppressions (handled by the
engine, see :mod:`repro.lint.engine`) can silence it at the source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.engine import ModuleInfo, ProjectContext

#: Severity labels, in increasing order of badness.
SEVERITIES = ("warning", "error")


@dataclass(frozen=True)
class Violation:
    """One finding: a rule ``code`` firing at ``path:line:col``."""

    code: str
    message: str
    path: str
    line: int
    col: int = 0
    severity: str = "error"

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
        }

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.code} [{self.severity}] {self.message}")


#: Rule tiers, in the order ``--list-rules`` groups them.
TIERS = ("contracts", "dataflow", "concurrency", "interproc")


class Rule:
    """Base class for lint rules.

    Subclasses set ``code``, ``title``, ``severity`` and ``tier`` and
    override one (or both) of the check hooks.  Both hooks are
    generators of :class:`Violation`; the engine filters suppressed
    findings.  ``tier`` is ``"contracts"`` for the syntactic AST rules
    (DET/INV/SUP), ``"dataflow"`` for the CFG/dataflow rules
    (SAT/UNIT/STAT), ``"concurrency"`` for the thread/async/
    durability rules (ASY/LOCK/ATOM/EXC/EVT) and ``"interproc"`` for
    the call-graph/effect-summary rules (CKEY/PAR).
    """

    code: str = ""
    title: str = ""
    severity: str = "error"
    tier: str = "contracts"

    def check_module(self, module: "ModuleInfo",
                     project: "ProjectContext") -> Iterator[Violation]:
        return iter(())

    def check_project(self,
                      project: "ProjectContext") -> Iterator[Violation]:
        return iter(())

    # -- helpers -------------------------------------------------------
    def violation(self, module: "ModuleInfo", node: object,
                  message: str) -> Violation:
        """Build a violation anchored at *node* (an AST node)."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Violation(code=self.code, message=message,
                         path=str(module.path), line=line, col=col,
                         severity=self.severity)


#: code -> rule class, populated by :func:`register_rule`.
RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding *cls* to :data:`RULE_REGISTRY`."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in RULE_REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    if cls.severity not in SEVERITIES:
        raise ValueError(f"rule {cls.code}: bad severity {cls.severity!r}")
    if cls.tier not in TIERS:
        raise ValueError(f"rule {cls.code}: bad tier {cls.tier!r}")
    RULE_REGISTRY[cls.code] = cls
    return cls


def all_rule_codes() -> List[str]:
    return sorted(RULE_REGISTRY)


def expand_codes(raw: Iterable[str]) -> List[str]:
    """Expand exact codes and family prefixes to registered codes.

    ``"SAT001"`` selects itself; ``"SAT"`` (or ``"det"``) selects every
    registered code starting with that prefix.  Raises ``ValueError``
    on anything matching nothing.
    """
    out: List[str] = []
    for entry in raw:
        token = entry.strip()
        if not token:
            continue
        if token in RULE_REGISTRY:
            out.append(token)
            continue
        matches = [code for code in all_rule_codes()
                   if code.startswith(token.upper())]
        if not matches:
            raise ValueError(f"unknown rule code or prefix: {token!r}")
        out.extend(matches)
    return out


def build_rules(select: Iterable[str] = (),
                ignore: Iterable[str] = ()) -> List[Rule]:
    """Instantiate the active rule set.

    Args:
        select: if non-empty, only these codes (or family prefixes,
            e.g. ``"SAT"``) run.
        ignore: codes/prefixes removed after selection.
    """
    selected = set(expand_codes(select)) or set(RULE_REGISTRY)
    active = sorted(selected - set(expand_codes(ignore)))
    return [RULE_REGISTRY[code]() for code in active]
