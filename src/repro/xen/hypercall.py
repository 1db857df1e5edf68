"""The planner -> hypervisor table-push interface (Sec. 6).

The userspace planner compiles a table to the binary format and pushes
it via a hypercall; the hypervisor validates it and stages it behind the
per-core ``next_table`` pointers.  To keep the dispatcher hot path free
of locks, activation is *time-synchronized*: the staging always happens
"at a point in the middle of the next round of the current table", so no
core can race a table wrap while the pointer changes, and every core
flips at the same wrap (Sec. 6, "Lock-free table switches").

Table lifecycle bookkeeping is explicit so failure paths stay auditable:
a pushed table is **staged** until its activation wrap; the outgoing
table is retired only when the staged table actually activates (the
dispatcher reports the switch through ``on_table_switch``); a staged
table overwritten by a later push before it ever ran is retired as
*unactivated* and counted separately.  Two rounds after a switch the old
table is garbage-collected; collected tables are marked so the invariant
auditor can prove no core still references one.

A :class:`repro.faults.FaultPlan` may be installed to inject push
failures, in-flight payload corruption, and delayed activations at this
boundary — all failures fire *before* anything is staged, so a failed
push never disturbs the serving table.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from dataclasses import dataclass

from repro.core.serialize import (
    ScheduleKey,
    bind_delta_core,
    check_parallel_service,
    deserialize,
    deserialize_delta,
    remember_schedules,
    serialize,
    serialize_delta,
)
from repro.core.table import CoreTable, Segments, SystemTable
from repro.errors import TableDeltaMismatchError, TableFormatError, TablePushError
from repro.faults.plan import SITE_ACTIVATION, SITE_PAYLOAD, SITE_PUSH, corrupt_payload
from repro.schedulers.tableau import TableauScheduler

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.faults.plan import FaultPlan


@dataclass
class PushRecord:
    """Audit record of one table push."""

    pushed_at_ns: int
    activation_cycle: int
    table_bytes: int
    delayed_cycles: int = 0  # extra cycles added by an activation fault
    delta: bool = False  # True when only changed per-core columns travelled


class TableHypercall:
    """The hypervisor end of the table-push hypercall.

    Args:
        scheduler: The in-hypervisor Tableau dispatcher.  The hypercall
            registers itself as the dispatcher's table-switch observer;
            a scheduler has at most one hypercall front end.
        faults: Optional fault plan consulted on every push.
    """

    def __init__(
        self, scheduler: TableauScheduler, faults: Optional["FaultPlan"] = None
    ) -> None:
        self.scheduler = scheduler
        self.faults = faults
        self.pushes: List[PushRecord] = []
        self._retired_tables: List[SystemTable] = []
        self._staged: Optional[SystemTable] = None
        self.activations = 0
        self.retired_unactivated = 0
        self.failed_activations = 0
        #: Monotonic push-generation token.  Bumped on every successful
        #: push; a delta payload names the generation it applies on top
        #: of, so a stale delta (another push got in between) is
        #: rejected instead of silently merging onto the wrong base.
        self.delta_generation = 0
        #: The most recently pushed table — the base a delta applies to.
        self._delta_base: Optional[SystemTable] = None
        scheduler.on_table_switch = self._on_table_switch
        scheduler.add_switch_failed_listener(self._on_switch_failed)

    def _now(self) -> int:
        machine = self.scheduler.machine
        return machine.engine.now if machine is not None else 0

    # ------------------------------------------------------------------
    # Table lifecycle accounting
    # ------------------------------------------------------------------

    def _on_table_switch(
        self, old: SystemTable, new: SystemTable, now: int
    ) -> None:
        """Dispatcher callback: the staged table just became active."""
        if new is self._staged:
            self._staged = None
            self.activations += 1
        self._retire(old)

    def _on_switch_failed(self, dropped: SystemTable, now: int) -> None:
        """Dispatcher callback: a staged table failed its activation wrap
        (runtime switch-fault injection) and was dropped.

        The table never served, but it must not vanish from the push
        accounting — it is retired under its own counter so the auditor
        can still prove every push is accounted for.
        """
        if dropped is self._staged:
            self._staged = None
        self.failed_activations += 1
        self._retire(dropped)

    def _retire(self, table: SystemTable) -> None:
        self._retired_tables.append(table)
        # Garbage collection: anything older than two rounds before the
        # most recent activation can no longer be referenced by any core.
        if len(self._retired_tables) > 2:
            for dropped in self._retired_tables[:-2]:
                dropped._gc_dropped = True
            self._retired_tables = self._retired_tables[-2:]

    @staticmethod
    def was_garbage_collected(table: SystemTable) -> bool:
        return getattr(table, "_gc_dropped", False)

    @property
    def staged_table(self) -> Optional[SystemTable]:
        """The pushed table (if any) not yet activated or overwritten."""
        return self._staged

    @property
    def retired_table_count(self) -> int:
        return len(self._retired_tables)

    # ------------------------------------------------------------------
    # The hypercall itself
    # ------------------------------------------------------------------

    def push_table(self, payload: bytes) -> PushRecord:
        """Validate and stage a serialized table.

        The activation cycle is chosen so the pointer write lands mid-
        round: if the push happens in the first half of the current
        cycle, the table activates at the next wrap; pushes in the
        second half (too close to the wrap to be race-free) activate one
        cycle later.  The cycle index and the wrap check both use the
        *currently serving* table's length, so the math stays consistent
        even when the staged table's ``length_ns`` differs.

        :func:`~repro.core.serialize.deserialize` is the whole structural
        check: every malformed payload raises :class:`TableFormatError`
        there, and the table it returns is staged as is.  A core block
        an earlier push carried is not checked again (a cache hit is an
        exact match of a block that passed every check), while what
        varies from push to push is checked on every push.  All failure
        exits happen before :meth:`TableauScheduler.install_table`: a
        rejected push leaves the serving table, the staged table, and
        all accounting untouched.
        """
        payload = self._consult_push_faults(payload)
        table = deserialize(payload)
        return self._stage(table, len(payload), delta=False)

    def push_table_delta(self, payload: bytes) -> PushRecord:
        """Validate and stage a delta payload (changed per-core columns).

        The delta is applied on top of the most recently pushed table:
        the staged table is that base table with the carried cores laid
        over it (:meth:`~repro.core.table.SystemTable.patched`).  Cores
        absent from the payload share the base's ``CoreTable`` objects
        outright (zero-copy), and the vCPU index is the base's, patched
        for the replaced and carried cores.  Each core present is bound
        to its name-free schedule
        (:func:`~repro.core.serialize.bind_delta_core`) under the names
        of the delta's string table: one an earlier delta carried shares
        its segments and slice table, so only a new schedule is built and
        has its slice table derived.  A delta whose base token does not
        name the current push generation, whose geometry disagrees with
        the base, or whose new schedule would derive more than
        ``DELTA_SLICE_LIMIT`` slice entries is rejected with
        :class:`TableDeltaMismatchError` *before* anything is staged; the
        daemon then falls back to a full push.

        :func:`~repro.core.serialize.deserialize_delta` checks each
        changed core's columns and the base cores were checked when they
        were pushed, so the one check left is the assembled table's
        no-parallel-service check: a vCPU served on two cores at once
        raises :class:`TableFormatError`, as in a full push.  The push's
        new schedules are remembered only once that check passed.
        """
        payload = self._consult_push_faults(payload)
        length_ns, names, base_token, columns = deserialize_delta(payload)
        base = self._delta_base
        if base is None:
            raise TableDeltaMismatchError(
                "delta push with no previously pushed base table"
            )
        if base_token != self.delta_generation:
            raise TableDeltaMismatchError(
                f"delta base token {base_token} does not match push "
                f"generation {self.delta_generation}"
            )
        if length_ns != base.length_ns:
            raise TableDeltaMismatchError(
                f"delta length {length_ns} does not match base length "
                f"{base.length_ns}"
            )
        carried: Dict[int, CoreTable] = {}
        schedules: Dict[ScheduleKey, Segments] = {}
        for cpu, (ends, handles) in columns.items():
            if cpu not in base.cores:
                raise TableDeltaMismatchError(
                    f"delta for cpu {cpu} absent from the base table"
                )
            carried[cpu] = bind_delta_core(
                cpu, length_ns, ends, handles, names, schedules
            )
        table = base.patched(carried)
        check_parallel_service(table)
        remember_schedules(schedules)
        return self._stage(table, len(payload), delta=True)

    def _consult_push_faults(self, payload: bytes) -> bytes:
        """Push-site fault injection, shared by full and delta pushes."""
        faults = self.faults
        if faults is not None:
            if faults.fires(SITE_PUSH) is not None:
                raise TablePushError("injected table-push failure")
            if faults.fires(SITE_PAYLOAD) is not None:
                payload = corrupt_payload(payload)
        return payload

    def _stage(self, table: SystemTable, payload_len: int, delta: bool) -> PushRecord:
        """Stage a validated table: activation math, retirement, record.

        The tail shared by :meth:`push_table` and
        :meth:`push_table_delta`; everything before this point is
        side-effect-free, so a rejected push never disturbs the serving
        table.
        """
        now = self._now()
        # The dispatcher checks the activation cycle against the length
        # of the table serving *at the wrap*; both sides use the current
        # table's length, never the staged table's.
        length = self.scheduler.table.length_ns
        cycle = now // length
        phase = now % length
        # Mid-round rule: the pointer is written at the middle of the
        # *next* round, so the earliest safe activation is the wrap after
        # that write.
        activation_cycle = cycle + (2 if phase > length // 2 else 1)
        delayed = 0
        if self.faults is not None:
            spec = self.faults.fires(SITE_ACTIVATION)
            if spec is not None:
                delayed = spec.delay_cycles
                activation_cycle += delayed
        if self._staged is not None:
            # Overwritten before its activation wrap: the staged table
            # never ran, but it must not vanish from the accounting.
            self._retire(self._staged)
            self.retired_unactivated += 1
            self._staged = None
        self.scheduler.install_table(table, activation_cycle)
        self._staged = table
        self.delta_generation += 1
        self._delta_base = table
        record = PushRecord(
            pushed_at_ns=now,
            activation_cycle=activation_cycle,
            table_bytes=payload_len,
            delayed_cycles=delayed,
            delta=delta,
        )
        self.pushes.append(record)
        return record

    def push_system_table(self, table: SystemTable) -> PushRecord:
        """Serialize-then-push convenience used by the planner daemon."""
        return self.push_table(serialize(table))

    def push_system_table_delta(
        self, table: SystemTable, changed_cores: List[int], base_token: int
    ) -> PushRecord:
        """Serialize-then-push convenience for the delta path."""
        return self.push_table_delta(
            serialize_delta(table, changed_cores, base_token)
        )
