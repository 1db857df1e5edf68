"""Campaign runner timeout accounting: shared deadlines, no pool stall.

Regression tests for two entangled bugs in the old ``_run_parallel``:

1. **Deadline leakage** — futures were awaited in submission order with
   ``future.result(timeout=shard_timeout_s)`` each, so every await
   restarted the clock and a slow early shard silently granted all
   later shards its elapsed time; a queue of N hung shards took
   N*timeout wall-clock.
2. **Timed-out-shard stall** — after a timeout the runner called
   ``future.cancel()`` (a no-op on a running task) and then blocked in
   the executor's ``__exit__``, which waits for every worker, so the
   campaign queued behind the very shard it had just declared dead.

The pool workers here are forked children, so monkeypatching
``repro.campaign.runner.run_shard`` in the parent is inherited — the
stand-ins below must be module-level (picklable by reference).
"""

import time

from repro.campaign import CampaignMatrix, run_campaign
from repro.campaign.shard import run_shard as real_run_shard


def tiny_matrix(**overrides):
    defaults = dict(
        name="deadline",
        probe="intrinsic",
        schedulers=("credit",),
        vm_counts=(4,),
        seeds=(42, 43, 44),
        topology="2",
        duration_s=0.005,
    )
    defaults.update(overrides)
    return CampaignMatrix(**defaults)


def _hang(spec):
    """A shard that outlives any reasonable deadline (but not the test)."""
    time.sleep(5.0)
    return real_run_shard(spec)


def _hang_first_seed(spec):
    """Seed 42 hangs; every other shard is an ordinary fast run."""
    if spec.seed == 42:
        time.sleep(5.0)
    return real_run_shard(spec)


class TestSharedDeadline:
    def test_hung_round_costs_one_deadline_not_n(self, monkeypatch):
        """Three hung shards, two workers: two deadlines, no worker join.

        Round 1 runs two shards to the shared 0.4s deadline and requeues
        the never-started third; round 2 times that one out.  Fails on
        the pre-fix runner, where each await restarted the clock (0.4s
        per shard, serialized) and the pool ``__exit__`` then joined the
        hung workers for the rest of their 5s sleeps.
        """
        monkeypatch.setattr("repro.campaign.runner.run_shard", _hang)
        started = time.monotonic()
        result = run_campaign(tiny_matrix(), workers=2, shard_timeout_s=0.4)
        wall = time.monotonic() - started
        assert not result.ok
        assert wall < 2.5  # pre-fix: >= 5s (joins the hung workers)
        statuses = [r["status"] for r in result.records]
        assert statuses == ["timeout", "timeout", "timeout"]

    def test_fast_siblings_of_a_hung_shard_still_succeed(self, monkeypatch):
        """A hung shard must not take its round's finished siblings down.

        With two workers, seed 42 hangs while 43 runs (and finishes)
        beside it; 44 never starts.  The deadline sweep must harvest
        43's completed result and requeue 44, recording a timeout only
        for 42.  Fails on the pre-fix runner, which blocked in the pool
        ``__exit__`` behind the hung worker (~5s here) before later
        shards were even looked at.
        """
        monkeypatch.setattr(
            "repro.campaign.runner.run_shard", _hang_first_seed
        )
        started = time.monotonic()
        result = run_campaign(tiny_matrix(), workers=2, shard_timeout_s=1.0)
        wall = time.monotonic() - started
        assert wall < 4.0  # did not wait out the 5s hang
        by_seed = {r["spec"]["seed"]: r["status"] for r in result.records}
        assert by_seed[42] == "timeout"
        assert by_seed[43] == "ok"
        assert by_seed[44] == "ok"
        assert result.failures == [f"{result.records[0]['shard']}: timeout"]

    def test_timeout_round_does_not_block_pool_exit(self, monkeypatch):
        """Wall-clock stays near the deadline, not the shard runtime.

        Fails on the pre-fix runner: ``with ProcessPoolExecutor(...)``
        joined the hung worker on exit, so a 0.3s timeout still cost
        the full 5s sleep.
        """
        monkeypatch.setattr("repro.campaign.runner.run_shard", _hang)
        started = time.monotonic()
        result = run_campaign(
            tiny_matrix(seeds=(42,)), workers=2, shard_timeout_s=0.3
        )
        wall = time.monotonic() - started
        assert wall < 2.5
        assert result.records[0]["status"] == "timeout"

    def test_requeued_shards_keep_their_records_in_matrix_order(
        self, monkeypatch
    ):
        monkeypatch.setattr("repro.campaign.runner.run_shard", _hang)
        result = run_campaign(tiny_matrix(), workers=2, shard_timeout_s=0.2)
        assert [r["spec"]["seed"] for r in result.records] == [42, 43, 44]
        assert all(r["status"] == "timeout" for r in result.records)
