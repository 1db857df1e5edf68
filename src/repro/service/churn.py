"""Seeded tenant-churn generation with diurnal load shaping.

Arrivals follow a nonhomogeneous Poisson process whose rate traces a
sinusoidal diurnal curve (clouds see day/night swings, and the batching
behaviour of the control plane is only interesting if load actually
bursts).  The classic thinning construction keeps it exact and seeded:
candidate arrivals are drawn from a homogeneous process at the
envelope rate ``lambda_max`` and accepted with probability
``rate(t) / lambda_max`` — every draw comes from one
``random.Random(seed)``, so the full request stream is a pure function
of the config.

Request synthesis steers the tenant population toward a target size:
below target the mix leans to creates, above it to teardowns, with a
configurable fraction of guarantee queries and tier reconfigurations
mixed in.  Victims of teardown/reconfigure are drawn from the *sorted*
tenant list, so the stream never depends on hash order.
"""

from __future__ import annotations

import math
import random
import reprlib
import zlib
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.params import SEC, Nanoseconds
from repro.errors import ConfigurationError, JournalError
from repro.service.journal import decode_rng_state, encode_rng_state
from repro.service.requests import (
    KIND_CREATE,
    KIND_QUERY,
    KIND_RECONFIGURE,
    KIND_TEARDOWN,
    TenantRequest,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.service.control import SchedulerService
    from repro.sim.engine import SimEngine


@dataclass(frozen=True)
class ChurnConfig:
    """Shape of the synthetic tenant stream.

    Attributes:
        seed: Seed of the single RNG behind arrivals and request mix.
        arrival_rate_per_s: Mean arrival rate of the diurnal curve.
        diurnal_amplitude: Relative swing in [0, 1): rate peaks at
            ``mean * (1 + a)`` and troughs at ``mean * (1 - a)``.
        diurnal_period_s: One full day/night cycle, in simulated
            seconds (compressed from 24h so short runs see full
            cycles).
        target_population: Census size the create/teardown mix steers
            toward.
        tier_weights: ``(tier_name, weight)`` pairs for create and
            reconfigure tier draws.
        query_fraction: Share of requests that are guarantee queries.
        reconfigure_fraction: Share of *non-create* mutations that
            reconfigure rather than tear down.
    """

    seed: int = 42
    arrival_rate_per_s: float = 4.0
    diurnal_amplitude: float = 0.6
    diurnal_period_s: float = 1800.0
    target_population: int = 32
    tier_weights: Sequence[Tuple[str, int]] = (
        ("economy", 40),
        ("standard", 35),
        ("performance", 20),
        ("dedicated", 5),
    )
    query_fraction: float = 0.35
    reconfigure_fraction: float = 0.3

    def __post_init__(self) -> None:
        if self.arrival_rate_per_s <= 0:
            raise ConfigurationError("arrival_rate_per_s must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ConfigurationError("diurnal_amplitude must be in [0, 1)")
        if self.diurnal_period_s <= 0:
            raise ConfigurationError("diurnal_period_s must be positive")
        if self.target_population < 1:
            raise ConfigurationError("target_population must be >= 1")
        if not self.tier_weights:
            raise ConfigurationError("tier_weights must be non-empty")
        if not 0.0 <= self.query_fraction < 1.0:
            raise ConfigurationError("query_fraction must be in [0, 1)")

    def rate_per_s(self, t_s: float) -> float:
        """Instantaneous arrival rate at simulated time ``t_s``."""
        phase = 2.0 * math.pi * t_s / self.diurnal_period_s
        return self.arrival_rate_per_s * (
            1.0 + self.diurnal_amplitude * math.sin(phase)
        )


class ChurnGenerator:
    """Drives a :class:`~repro.service.control.SchedulerService` with a
    seeded request stream on the service's own simulated clock.

    Usage::

        gen = ChurnGenerator(service, config)
        gen.start(until_ns=2 * 3600 * SEC)
        service.engine.run_until(2 * 3600 * SEC)
    """

    def __init__(
        self, service: "SchedulerService", config: Optional[ChurnConfig] = None
    ) -> None:
        self.service = service
        self.config = config if config is not None else ChurnConfig()
        self.rng = random.Random(self.config.seed)
        self.generated = 0
        self._births = 0
        self._t_s = 0.0  # last accepted arrival, in float seconds
        self._until_ns = 0

    # ------------------------------------------------------------------
    # Arrival process (thinning)
    # ------------------------------------------------------------------

    def _next_arrival_ns(self) -> Nanoseconds:
        """Absolute time of the next accepted arrival."""
        cfg = self.config
        lambda_max = cfg.arrival_rate_per_s * (1.0 + cfg.diurnal_amplitude)
        t = self._t_s
        while True:
            # Exponential envelope gap; log1p keeps u=0 finite.
            t += -math.log1p(-self.rng.random()) / lambda_max
            if self.rng.random() * lambda_max <= cfg.rate_per_s(t):
                self._t_s = t
                return Nanoseconds(int(t * SEC))

    # ------------------------------------------------------------------
    # Request synthesis
    # ------------------------------------------------------------------

    def _draw_tier(self) -> str:
        total = sum(w for _, w in self.config.tier_weights)
        pick = self.rng.randrange(total)
        acc = 0
        for name, weight in self.config.tier_weights:
            acc += weight
            if pick < acc:
                return name
        return self.config.tier_weights[-1][0]  # pragma: no cover

    def _make_request(self, arrival_ns: int) -> TenantRequest:
        cfg = self.config
        tenants = self.service.tenant_names()  # sorted — no hash order
        population = len(tenants)
        seq = self.generated
        if tenants and self.rng.random() < cfg.query_fraction:
            victim = tenants[self.rng.randrange(len(tenants))]
            return TenantRequest(
                KIND_QUERY, victim, arrival_ns=arrival_ns, seq=seq
            )
        # Population steering: create probability slides from ~0.9 when
        # far below target to ~0.1 when far above.
        drift = (cfg.target_population - population) / cfg.target_population
        p_create = min(0.9, max(0.1, 0.5 + 0.5 * drift))
        if not tenants or self.rng.random() < p_create:
            name = f"t{self._births:06d}"
            self._births += 1
            return TenantRequest(
                KIND_CREATE,
                name,
                tier=self._draw_tier(),
                arrival_ns=arrival_ns,
                seq=seq,
            )
        victim = tenants[self.rng.randrange(len(tenants))]
        if self.rng.random() < cfg.reconfigure_fraction:
            return TenantRequest(
                KIND_RECONFIGURE,
                victim,
                tier=self._draw_tier(),
                arrival_ns=arrival_ns,
                seq=seq,
            )
        return TenantRequest(
            KIND_TEARDOWN, victim, arrival_ns=arrival_ns, seq=seq
        )

    # ------------------------------------------------------------------
    # Clock wiring
    # ------------------------------------------------------------------

    def start(self, until_ns: int) -> None:
        """Schedule the arrival stream on the service's engine up to
        ``until_ns`` (arrivals past it are never scheduled)."""
        self._until_ns = until_ns
        self._schedule_next()

    def _schedule_next(self) -> None:
        arrival_ns = self._next_arrival_ns()
        if arrival_ns > self._until_ns:
            return
        self.service.engine.at(arrival_ns, self._fire)

    def _fire(self) -> None:
        now = self.service.engine.now
        request = self._make_request(now)
        self.generated += 1
        if self.service.journal is not None:
            self.service.submit(request, churn_state=self._checkpoint())
        else:
            self.service.submit(request)
        self._schedule_next()

    # ------------------------------------------------------------------
    # Crash checkpoints
    # ------------------------------------------------------------------

    def _checkpoint(self) -> "dict[str, object]":
        """Full generator state *after* synthesizing the request about
        to be submitted (rides that request's journal record, so the
        checkpoint is durable exactly when the request is).  Restoring
        it and calling :meth:`_schedule_next` reproduces the remainder
        of the stream draw-for-draw."""
        return {
            "generated": self.generated,
            "births": self._births,
            # float seconds, exactly: hex round-trips every bit.
            "t": self._t_s.hex(),
            "rng": encode_rng_state(self.rng.getstate()),
        }

    @classmethod
    def resume(
        cls,
        service: "SchedulerService",
        config: Optional[ChurnConfig],
        state: "dict[str, object]",
    ) -> "ChurnGenerator":
        """Rebuild a generator from a journaled checkpoint.

        The returned generator's next request (seq, name, kind, tier,
        arrival time) is bit-identical to what the crashed generator
        would have produced next.  A checkpoint :meth:`_checkpoint`
        could not have written raises :class:`JournalError` naming the
        ``seq`` of the journaled request that carried it.
        """
        generator = cls(service, config)
        try:
            generated = state["generated"]
            births = state["births"]
            t_s = float.fromhex(str(state["t"]))
            rng_state = decode_rng_state(str(state["rng"]))
            if type(generated) is not int or type(births) is not int:
                raise TypeError("generated and births must be integers")
            if not math.isfinite(t_s * SEC):
                raise ValueError(f"arrival clock {t_s!r} s is not finite in ns")
            generator.rng.setstate(rng_state)
        except (
            KeyError,
            TypeError,
            ValueError,
            OverflowError,
            RecursionError,
            zlib.error,
        ) as error:
            journal = service.journal
            seq = journal.last_churn_seq if journal is not None else None
            raise JournalError(
                f"request record seq={reprlib.repr(seq)}: unusable churn "
                f"checkpoint ({type(error).__name__}: {error})"
            ) from error
        generator.generated = generated  # type: ignore[assignment]
        generator._births = births  # type: ignore[assignment]
        generator._t_s = t_s
        return generator
