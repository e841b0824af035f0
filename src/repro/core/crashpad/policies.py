"""The three compromise policies (§3.3).

"How to overcome a bug? (How much correctness to compromise?)" --
Crash-Pad exposes exactly the paper's straw-man trio:

- **Absolute Compromise** ignores the offending event (sacrificing
  correctness) and makes SDN-Apps failure-oblivious.
- **No Compromise** allows the SDN-App to crash, sacrificing
  availability to ensure correctness.
- **Equivalence Compromise** transforms the event into an equivalent
  one (a switch-down becomes a series of link-downs, or vice versa).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional


class CompromisePolicy(enum.Enum):
    """How much correctness to give up for availability."""

    NO_COMPROMISE = "no-compromise"
    ABSOLUTE = "absolute"
    EQUIVALENCE = "equivalence"

    @classmethod
    def parse(cls, text: str) -> "CompromisePolicy":
        normalized = text.strip().lower()
        for policy in cls:
            if policy.value == normalized:
                return policy
        raise ValueError(
            f"unknown policy {text!r}; expected one of "
            f"{[p.value for p in cls]}"
        )


@dataclass
class RecoveryDecision:
    """What Crash-Pad decided to do about one failure.

    ``replacement_events`` is the (possibly empty) list of events to
    deliver after restoring the checkpoint:

    - NO_COMPROMISE: irrelevant (the app stays down);
    - ABSOLUTE: empty (the offending event is skipped);
    - EQUIVALENCE: the transformed event(s).
    """

    policy: CompromisePolicy
    replacement_events: List[object] = field(default_factory=list)
    note: str = ""

    @property
    def lets_app_die(self) -> bool:
        return self.policy is CompromisePolicy.NO_COMPROMISE
