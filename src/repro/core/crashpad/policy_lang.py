"""The per-app, per-event policy language (§3.3).

"Crash-Pad can support a simple policy language that allows operators
to specify, on a per application basis, the set of events, if any,
that they are willing to compromise on."

The language is line-oriented; first matching rule wins::

    # security apps never compromise
    app=firewall   event=*           policy=no-compromise
    # topology events get the equivalence treatment
    app=*          event=SwitchLeave policy=equivalence
    app=*          event=LinkRemoved policy=equivalence
    # everything else: skip the offending event
    app=*          event=*           policy=absolute

Patterns are shell globs (fnmatch).
"""

from __future__ import annotations

import fnmatch
from typing import List, Optional

from repro.core.crashpad.policies import CompromisePolicy
from repro.record import record


class PolicyParseError(ValueError):
    """A policy text line could not be parsed."""


@record
class PolicyRule:
    """One rule: app glob + event-type glob -> policy."""

    app_pattern: str
    event_pattern: str
    policy: CompromisePolicy

    def matches(self, app_name: str, event_type: str) -> bool:
        return (fnmatch.fnmatchcase(app_name, self.app_pattern)
                and fnmatch.fnmatchcase(event_type, self.event_pattern))

    def render(self) -> str:
        return (f"app={self.app_pattern} event={self.event_pattern} "
                f"policy={self.policy.value}")


class PolicyTable:
    """Ordered rules with a default (first match wins)."""

    def __init__(self, rules: Optional[List[PolicyRule]] = None,
                 default: CompromisePolicy = CompromisePolicy.ABSOLUTE):
        self.rules = list(rules or [])
        self.default = default

    def lookup(self, app_name: str, event_type: str) -> CompromisePolicy:
        for rule in self.rules:
            if rule.matches(app_name, event_type):
                return rule.policy
        return self.default

    # -- text form ---------------------------------------------------------

    @classmethod
    def parse(cls, text: str,
              default: CompromisePolicy = CompromisePolicy.ABSOLUTE) -> "PolicyTable":
        """Parse the line-oriented policy language."""
        rules = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = {}
            for token in line.split():
                if "=" not in token:
                    raise PolicyParseError(
                        f"line {lineno}: expected key=value, got {token!r}"
                    )
                key, _, value = token.partition("=")
                fields[key] = value
            missing = {"app", "event", "policy"} - set(fields)
            if missing:
                raise PolicyParseError(
                    f"line {lineno}: missing {sorted(missing)}"
                )
            try:
                policy = CompromisePolicy.parse(fields["policy"])
            except ValueError as exc:
                raise PolicyParseError(f"line {lineno}: {exc}") from exc
            rules.append(PolicyRule(fields["app"], fields["event"], policy))
        return cls(rules=rules, default=default)

    def render(self) -> str:
        lines = [rule.render() for rule in self.rules]
        lines.append(f"# default: {self.default.value}")
        return "\n".join(lines)


#: A sensible default table: security apps never compromise; topology
#: events are transformed; everything else is skipped.
DEFAULT_POLICY_TEXT = """
app=firewall event=* policy=no-compromise
app=* event=SwitchLeave policy=equivalence
app=* event=LinkRemoved policy=equivalence
app=* event=* policy=absolute
"""


def default_policy_table() -> PolicyTable:
    return PolicyTable.parse(DEFAULT_POLICY_TEXT)
