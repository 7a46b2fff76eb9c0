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
from typing import Dict, Optional

__all__ = ["CongosParams", "default_deadline_cap"]


def default_deadline_cap(n: int, constant: float = 1.0) -> int:
    """The paper's deadline cap ``c * log^6 n`` (Section 4.2)."""
    if n < 2:
        return 1
    return max(4, int(constant * math.log2(n) ** 6))


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
    gossip_reliable:
        Whether substrate instances flush at expiry (probability-1 delivery
        inside the black box; CONGOS does not need it thanks to its own
        fallback, so the default is off).
    direct_send_threshold:
        Rumors with deadlines at or below this are sent directly by their
        source (Section 5 assumes ``dline > 48``).
    deadline_cap:
        Upper trim for deadlines; ``None`` means "use c*log^6 n", which at
        simulation scale never binds.
    partition_count_constant:
        The ``c`` of the ``c tau log n`` random partitions (Section 6.2).
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
    proxy_retransmit:
        Graceful-degradation knob (chaos runs): how many extra times an
        iteration's unacknowledged proxy requests are re-sent (to fresh
        proxy samples) at exponentially spaced positions within the same
        iteration.  ``0`` (default) is the paper's send-once rule.
    gd_redundancy:
        Graceful-degradation knob: a ``(destination, rid)`` pair counts as
        *hit* only after GroupDistribution has sent it ``gd_redundancy``
        times.  ``1`` (default) is the paper's optimistic first-send rule
        and reproduces its random draws exactly.
    fallback_early_fraction:
        Graceful-degradation knob: the source shoots unconfirmed rumors at
        ``injection + ceil(fraction * dline)`` instead of the full
        deadline, trading message complexity for QoD under loss.  ``1.0``
        (default) is the paper's deadline-exact fallback.
    gossip_resend_backoff:
        Graceful-degradation knob: when set, continuous-gossip items past
        the substrate's resend horizon are rebroadcast at exponentially
        spaced ages until expiry, instead of going silent.  Off by default
        (the paper's substrate stops re-sending after the horizon).
    direct_send_retries:
        Graceful-degradation knob for the direct-send path (deadline <=
        ``direct_send_threshold`` or Theorem 16 case 1): how many times an
        unacknowledged direct copy may be retransmitted, at exponentially
        backed-off positions before the deadline.  ``0`` (default) is the
        paper's single unacknowledged send.
    direct_send_ack:
        Direct-send knob: destinations acknowledge received direct copies
        (rumor id + acker pid only — never payload bytes), letting the
        source stop retransmitting to destinations that already hold the
        rumor.  Off by default; without acks, retransmits and extra
        copies go to the full destination set.
    direct_send_copies:
        Direct-send knob: send each short-deadline rumor ``k`` times,
        spread evenly over the rounds remaining before its deadline.
        ``1`` (default) is the paper's single send.
    """

    tau: int = 1
    fanout_exponent_constant: float = 2.0
    fanout_scale: float = 0.5
    min_fanout: int = 2
    gossip_fanout_scale: float = 2.0
    gossip_schedule: str = "random"
    gossip_reliable: bool = False
    direct_send_threshold: int = 48
    deadline_cap: Optional[int] = None
    deadline_cap_constant: float = 1.0
    partition_count_constant: float = 1.0
    gd_target_pool: str = "destinations"
    collusion_direct_factor: float = 4.0
    fallback_scope: str = "all"
    proxy_retransmit: int = 0
    gd_redundancy: int = 1
    fallback_early_fraction: float = 1.0
    gossip_resend_backoff: bool = False
    direct_send_retries: int = 0
    direct_send_ack: bool = False
    direct_send_copies: int = 1

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
        if self.proxy_retransmit < 0:
            raise ValueError("proxy_retransmit must be non-negative")
        if self.gd_redundancy < 1:
            raise ValueError("gd_redundancy must be >= 1")
        if not 0.0 < self.fallback_early_fraction <= 1.0:
            raise ValueError("fallback_early_fraction must be in (0, 1]")
        if self.direct_send_retries < 0:
            raise ValueError("direct_send_retries must be non-negative")
        if self.direct_send_copies < 1:
            raise ValueError("direct_send_copies must be >= 1")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def num_groups(self) -> int:
        """Groups per partition: ``tau + 1`` (Section 6.2)."""
        return self.tau + 1

    @property
    def direct_send_reliable(self) -> bool:
        """Whether any direct-send reliability machinery is enabled.

        False for default parameters — the coordinator then never builds
        per-rumor send state, so paper-exact runs stay bit-identical.
        """
        return (
            self.direct_send_ack
            or self.direct_send_retries > 0
            or self.direct_send_copies > 1
        )

    def effective_deadline_cap(self, n: int) -> int:
        if self.deadline_cap is not None:
            return self.deadline_cap
        return default_deadline_cap(n, self.deadline_cap_constant)

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

    def proxy_uptime(self, dline: int) -> int:
        """Continuous uptime the Proxy service requires (a block)."""
        return dline // 4

    def gd_uptime(self, dline: int) -> int:
        """Continuous uptime GroupDistribution requires (2*dline/3)."""
        return (2 * dline) // 3

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

    def partition_count(self, n: int) -> int:
        """Number of partitions to use.

        ``ceil(log2 n)`` bit partitions in the base algorithm; about
        ``c * tau * log n`` random partitions in collusion mode.
        """
        log_n = max(1, math.ceil(math.log2(max(2, n))))
        if self.tau == 1:
            return log_n
        return max(1, math.ceil(self.partition_count_constant * self.tau * log_n))

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
        shape sweeps; ``"hardened"`` every graceful-degradation knob on,
        including the direct-send ack/retransmit/k-copy scheme.  Keyword
        overrides are applied on top of the preset's fields.
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

    def hardened(self, **overrides: object) -> "CongosParams":
        """This parameter set with the graceful-degradation knobs on.

        Folds the ``"hardened"`` preset's fields onto the current
        instance, keeping every other field (``tau``, fanout constants) as
        it is — which ``preset("hardened")``, built from defaults, cannot
        do; the scenario builders' ``hardened=True`` relies on it.  Meant
        for chaos runs (lossy/delaying networks):
        bounded proxy retransmits, doubled GD send redundancy, earlier
        fallback, gossip resend backoff, and direct-send
        ack/retransmit/k-copy.  Under the paper's reliable network these
        only add redundant traffic — correctness is unchanged.
        """
        params = replace(self, **_PRESET_FIELDS["hardened"])
        return replace(params, **overrides) if overrides else params

    def with_tau(self, tau: int) -> "CongosParams":
        return replace(self, tau=tau)


# The preset registry: every named parameter set in one place, so a new
# knob (like the direct-send reliability fields) lands in exactly one
# spot per preset.  ``CongosParams.preset`` reads this table.
_PRESET_FIELDS: Dict[str, Dict[str, object]] = {
    "default": {},
    # The literal constants from the paper.
    "paper": {
        "fanout_exponent_constant": 48.0,
        "fanout_scale": 1.0,
        "direct_send_threshold": 48,
        "deadline_cap": None,
        "deadline_cap_constant": 1.0,
        "collusion_direct_factor": 1.0,
    },
    # Frugal settings for large-n sweeps (shape experiments).
    "lean": {
        "fanout_exponent_constant": 1.0,
        "fanout_scale": 0.25,
        "min_fanout": 1,
        "gossip_fanout_scale": 1.5,
    },
    # Every graceful-degradation knob on (chaos runs).
    "hardened": {
        "proxy_retransmit": 2,
        "gd_redundancy": 2,
        "fallback_early_fraction": 0.75,
        "gossip_resend_backoff": True,
        "direct_send_retries": 3,
        "direct_send_ack": True,
        "direct_send_copies": 2,
    },
}

# One line per preset, kept in lockstep with _PRESET_FIELDS (a test
# asserts the two registries cover the same names).
_PRESET_DESCRIPTIONS: Dict[str, str] = {
    "default": "simulation-calibrated constants for n <= 512 (the plain constructor)",
    "paper": "the paper's literal constants (analytic use; fanout saturates at sim scale)",
    "lean": "frugal fanouts for large-n shape sweeps",
    "hardened": "every graceful-degradation knob on, incl. direct-send ack/retransmit/k-copy",
}
