"""Parallel experiment campaigns over the evaluation matrix.

``repro.campaign`` turns the paper's scheduler x density x seed x
fault-preset evaluation grid into shards executed on a process pool,
with a resumable JSONL run log.  Parallel, serial, and resumed runs
produce byte-identical deterministic aggregates.

This package sits *above* the simulation stack: it may import
``repro.core`` / ``repro.sim`` / ``repro.experiments``, but nothing in
the deterministic scope may import it back (enforced by
``repro.lint``'s layering rules).  Wall-clock use is deliberate and
confined to operational reporting.
"""

from repro.campaign.matrix import (
    BUILTIN_MATRICES,
    CampaignMatrix,
    fig6_matrix,
    load_matrix,
    resolve_topology,
)
from repro.campaign.report import (
    aggregate_json,
    aggregate_records,
    campaign_report,
    format_campaign,
    write_aggregate,
)
from repro.campaign.runner import (
    CampaignResult,
    load_run_log,
    run_campaign,
)
from repro.campaign.shard import PROBES, ShardSpec, run_shard

__all__ = [
    "BUILTIN_MATRICES",
    "CampaignMatrix",
    "CampaignResult",
    "PROBES",
    "ShardSpec",
    "aggregate_json",
    "aggregate_records",
    "campaign_report",
    "fig6_matrix",
    "format_campaign",
    "load_matrix",
    "load_run_log",
    "resolve_topology",
    "run_campaign",
    "run_shard",
    "write_aggregate",
]
