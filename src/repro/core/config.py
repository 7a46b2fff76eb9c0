"""CONGOS protocol parameters.

The paper's analysis fixes large constants (the ``48`` in the fanout
exponent, deadline caps of ``c log^6 n``) so that union bounds hold for
astronomically large ``n``.  A faithful *executable* reproduction keeps
every such constant as a parameter: ``CongosParams.preset("paper")``
records the literal values from the paper, while the plain constructor
defaults are calibrated for simulation at ``n <= 512`` so that the *shape*
of the complexity claims is measurable (see DESIGN.md, Section 2).  Every
named parameter set is built by :meth:`CongosParams.preset`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, NamedTuple, Optional

__all__ = [
    "CongosParams",
    "Degradation",
    "HARDENED",
    "PAPER_EXACT",
    "default_deadline_cap",
]


def default_deadline_cap(n: int) -> int:
    """The paper's deadline cap ``log^6 n`` (Section 4.2)."""
    if n < 2:
        return 1
    return max(4, int(math.log2(n) ** 6))


class Degradation(NamedTuple):
    """The graceful-degradation layer's settings (DESIGN.md Section 7).

    Not a knob set: :attr:`CongosParams.hardened` picks one of the two
    tuples below, and the services read it as ``params.degradation``.
    """

    proxy_retransmit: int  # proxy re-requests per iteration (positions 2, 4, ..)
    gd_redundancy: int  # GD sends before a (dst, rid) pair counts as hit
    fallback_early_fraction: float  # shoot unconfirmed rumors this early
    gossip_resend_backoff: bool  # gossip resends at 2^k ages past the horizon
    direct_send_retries: int  # backed-off re-sends of an unacked direct copy
    direct_send_ack: bool  # destinations ack direct copies (rid + acker only)
    direct_send_copies: int  # sends per direct rumor, spread over its deadline


# ``hardened=False``: the paper's send-once rules, bit-exact draws.
PAPER_EXACT = Degradation(0, 1, 1.0, False, 0, False, 1)
# ``hardened=True``: more traffic for QoD under loss; never less correct.
HARDENED = Degradation(2, 2, 0.75, True, 3, True, 2)


@dataclass(frozen=True)
class CongosParams:
    """All tunables of the CONGOS protocol stack.

    Attributes
    ----------
    tau:
        Collusion tolerance.  ``tau=1`` is the base algorithm of Section 4
        (the paper views it as "a collusion of a process with itself"):
        two groups per partition, ``log n`` bit partitions.  ``tau >= 2``
        switches to the Section 6 variant: ``tau+1`` groups per partition
        and ``~ c tau log n`` random partitions.
    fanout_exponent_constant:
        The ``48`` of ``Theta(n^{1+48/sqrt(dline)} log n / |collab|)``.
    fanout_scale, min_fanout:
        Multiplier / floor applied to the per-process fanout formula.
    gossip_fanout_scale:
        Fanout multiplier of the continuous-gossip substrate
        (``ceil(scale * log2(group))`` targets per round).
    gossip_schedule:
        ``"random"`` or ``"expander"`` for the gossip substrate.
    direct_send_threshold:
        Rumors with deadlines at or below this are sent directly by their
        source (Section 5 assumes ``dline > 48``).
    deadline_cap:
        Upper trim for deadlines; ``None`` means "use log^6 n", which at
        simulation scale never binds.
    gd_target_pool:
        ``"destinations"`` (default): GroupDistribution samples targets
        from the not-yet-hit destinations of its fragments — the
        reconciliation described in DESIGN.md that makes confirmation
        sound.  ``"group"`` reproduces the paper's literal rule (uniform
        over the opposite group, possibly sending empty messages).
    fallback_scope:
        ``"all"`` (the paper's main rule): an unconfirmed rumor is shot to
        its whole destination set at the deadline.  ``"unconfirmed"``
        implements Figure 2's noted optimization — shoot only destinations
        whose hit records do not already cover them in some partition.
    hardened:
        The graceful-degradation layer (DESIGN.md Section 7) as one
        switch: :attr:`degradation` is :data:`HARDENED` when on and
        :data:`PAPER_EXACT` when off (the default).  Under the paper's
        reliable network it only adds redundant traffic; chaos runs turn
        it on.
    """

    tau: int = 1
    fanout_exponent_constant: float = 2.0
    fanout_scale: float = 0.5
    min_fanout: int = 2
    gossip_fanout_scale: float = 2.0
    gossip_schedule: str = "random"
    direct_send_threshold: int = 48
    deadline_cap: Optional[int] = None
    gd_target_pool: str = "destinations"
    collusion_direct_factor: float = 4.0
    fallback_scope: str = "all"
    hardened: bool = False

    def __post_init__(self) -> None:
        if self.tau < 1:
            raise ValueError("tau must be >= 1")
        if self.fanout_exponent_constant < 0:
            raise ValueError("fanout exponent constant must be non-negative")
        if self.fanout_scale <= 0:
            raise ValueError("fanout scale must be positive")
        if self.min_fanout < 1:
            raise ValueError("min_fanout must be >= 1")
        if self.gossip_schedule not in ("random", "expander"):
            raise ValueError("gossip_schedule must be 'random' or 'expander'")
        if self.direct_send_threshold < 1:
            raise ValueError("direct_send_threshold must be >= 1")
        if self.gd_target_pool not in ("destinations", "group"):
            raise ValueError("gd_target_pool must be 'destinations' or 'group'")
        if self.deadline_cap is not None and self.deadline_cap < 4:
            raise ValueError("deadline_cap must be >= 4")
        if self.fallback_scope not in ("all", "unconfirmed"):
            raise ValueError("fallback_scope must be 'all' or 'unconfirmed'")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def num_groups(self) -> int:
        """Groups per partition: ``tau + 1`` (Section 6.2)."""
        return self.tau + 1

    @property
    def degradation(self) -> "Degradation":
        """The graceful-degradation settings :attr:`hardened` selects."""
        return HARDENED if self.hardened else PAPER_EXACT

    def effective_deadline_cap(self, n: int) -> int:
        if self.deadline_cap is not None:
            return self.deadline_cap
        return default_deadline_cap(n)

    def service_fanout(self, n: int, dline: int, collaborators: int) -> int:
        """Per-process targets for Proxy / GroupDistribution sends.

        Implements ``Theta(n^{1+C/sqrt(dline)} log n / |collaborators|)``
        from Figures 3/4, with ``C = fanout_exponent_constant`` and the
        ``Theta`` constant ``fanout_scale``.
        """
        if dline < 1:
            raise ValueError("dline must be positive")
        collab = max(1, collaborators)
        exponent = 1.0 + self.fanout_exponent_constant / math.sqrt(dline)
        total = self.fanout_scale * (n ** exponent) * max(1.0, math.log2(max(2, n)))
        return max(self.min_fanout, math.ceil(total / collab))

    def injection_budget(self, n: int) -> int:
        """Sustainable per-round injection budget for open workloads.

        The cost of a round grows with the number of *concurrent* rumors
        (each drives its own proxy/GD fanout), and a rumor stays live for
        up to its deadline — so admitting ``b`` rumors per round holds
        roughly ``b * dline`` in flight.  ``n/32`` keeps that population
        a small fraction of the system at the deadlines the simulations
        use (calibrated like the other constants in this module for
        ``n <= 512``; it is a default, not a cap — admission policies may
        override ``per_round`` explicitly).  Floor of 1 so small systems
        still make progress.
        """
        if n < 2:
            raise ValueError("injection budgets need at least two processes")
        return max(1, n // 32)

    def collusion_forces_direct(self, n: int) -> bool:
        """Theorem 16 case 1: if ``tau >= n / log^2 n``, send directly.

        The rule belongs to the Section-6 collusion-tolerant variant; the
        base algorithm (``tau = 1``) always runs the pipeline.

        ``collusion_direct_factor`` relaxes the threshold to
        ``tau >= factor * n / log^2 n``: the paper's constant (1) makes
        every tau >= 2 direct below n ~ 128, which is the regime all
        simulations live in; any constant preserves the asymptotics, and
        the ``"paper"`` preset restores the literal 1.
        """
        if self.tau == 1:
            return False
        if n < 2:
            return True
        threshold = self.collusion_direct_factor * n / (math.log2(n) ** 2)
        return self.tau >= threshold

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------

    @classmethod
    def preset_names(cls) -> list:
        """Registered preset names, sorted."""
        return sorted(_PRESET_FIELDS)

    @classmethod
    def preset_descriptions(cls) -> Dict[str, str]:
        """Registered preset names with one-line descriptions, sorted.

        The discovery surface behind :func:`repro.api.presets` — callers
        should not need to import ``core.config`` to learn what presets
        exist.
        """
        return {name: _PRESET_DESCRIPTIONS[name] for name in sorted(_PRESET_FIELDS)}

    @classmethod
    def preset(cls, name: str, **overrides: object) -> "CongosParams":
        """Build a parameter set from the preset registry.

        ``preset("default")`` is the plain constructor; ``"paper"`` the
        literal constants from the paper (only useful analytically — at
        simulation scale the fanout formula with ``C = 48`` saturates
        every group immediately); ``"lean"`` frugal settings for large-n
        shape sweeps; ``"hardened"`` the default constants with the
        graceful-degradation layer on.  Keyword overrides are applied on
        top of the preset's fields.
        """
        try:
            fields = dict(_PRESET_FIELDS[name])
        except KeyError:
            raise KeyError(
                "unknown preset {!r}; registered: {}".format(
                    name, ", ".join(sorted(_PRESET_FIELDS))
                )
            ) from None
        fields.update(overrides)
        return cls(**fields)  # type: ignore[arg-type]

    def with_tau(self, tau: int) -> "CongosParams":
        return replace(self, tau=tau)


# The preset registry: every named parameter set in one place, so a new
# field lands in exactly one spot per preset.  ``CongosParams.preset``
# reads this table.
_PRESET_FIELDS: Dict[str, Dict[str, object]] = {
    "default": {},
    # The literal constants from the paper.
    "paper": {
        "fanout_exponent_constant": 48.0,
        "fanout_scale": 1.0,
        "direct_send_threshold": 48,
        "deadline_cap": None,
        "collusion_direct_factor": 1.0,
    },
    # Frugal settings for large-n sweeps (shape experiments).
    "lean": {
        "fanout_exponent_constant": 1.0,
        "fanout_scale": 0.25,
        "min_fanout": 1,
        "gossip_fanout_scale": 1.5,
    },
    # The graceful-degradation layer on (chaos runs).
    "hardened": {"hardened": True},
}

# One line per preset, kept in lockstep with _PRESET_FIELDS (a test
# asserts the two registries cover the same names).
_PRESET_DESCRIPTIONS: Dict[str, str] = {
    "default": "simulation-calibrated constants for n <= 512 (the plain constructor)",
    "paper": "the paper's literal constants (analytic use; fanout saturates at sim scale)",
    "lean": "frugal fanouts for large-n shape sweeps",
    "hardened": "the graceful-degradation layer on: retransmits, redundancy, direct-send acks",
}
