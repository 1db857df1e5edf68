"""Tests for VM/vCPU reservation parameter types and provisioning helpers."""

import dataclasses
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import (
    DEFAULT_TIERS,
    MS,
    VCpuSpec,
    VMSpec,
    fair_share_specs,
    flatten_vcpus,
    make_vm,
    vms_from_tiers,
)
from repro.errors import ConfigurationError


class TestVCpuSpec:
    def test_vm_name_derived_from_prefix(self):
        assert VCpuSpec("web3.vcpu1", 0.5, MS).vm == "web3"

    def test_explicit_vm_name_wins(self):
        assert VCpuSpec("x", 0.5, MS, vm="custom").vm == "custom"

    def test_dedicated_core_detection(self):
        assert VCpuSpec("v", 1.0, MS).needs_dedicated_core
        assert not VCpuSpec("v", 0.99, MS).needs_dedicated_core

    @pytest.mark.parametrize("bad_util", [0.0, -0.5, 1.01])
    def test_rejects_bad_utilization(self, bad_util):
        with pytest.raises(ConfigurationError):
            VCpuSpec("v", bad_util, MS)

    def test_rejects_bad_latency(self):
        with pytest.raises(ConfigurationError):
            VCpuSpec("v", 0.5, 0)

    def test_rejects_empty_name(self):
        with pytest.raises(ConfigurationError):
            VCpuSpec("", 0.5, MS)


class TestVMSpec:
    def test_total_utilization(self):
        vm = make_vm("vm0", 0.25, 20 * MS, vcpu_count=4)
        assert vm.total_utilization == pytest.approx(1.0)

    def test_requires_vcpus(self):
        with pytest.raises(ConfigurationError):
            VMSpec(name="vm0", vcpus=())

    def test_rejects_duplicate_vcpu_names(self):
        v = VCpuSpec("vm0.vcpu0", 0.1, MS)
        with pytest.raises(ConfigurationError):
            VMSpec(name="vm0", vcpus=(v, v))


class TestMakeVm:
    def test_vcpu_naming_convention(self):
        vm = make_vm("db", 0.5, 10 * MS, vcpu_count=2)
        assert [v.name for v in vm.vcpus] == ["db.vcpu0", "db.vcpu1"]

    def test_capped_flag_propagates(self):
        vm = make_vm("db", 0.5, 10 * MS, capped=True)
        assert all(v.capped for v in vm.vcpus)

    def test_rejects_zero_vcpus(self):
        with pytest.raises(ConfigurationError):
            make_vm("db", 0.5, 10 * MS, vcpu_count=0)


class TestFairShare:
    def test_four_vms_per_core_gives_quarter_share(self):
        # The paper's high-density setup: U = m/n.
        vms = fair_share_specs([f"vm{i}" for i in range(48)], num_cores=12)
        assert all(vm.vcpus[0].utilization == pytest.approx(0.25) for vm in vms)

    def test_few_vms_capped_at_full_core(self):
        vms = fair_share_specs(["a", "b"], num_cores=8)
        assert all(vm.vcpus[0].utilization == 1.0 for vm in vms)

    def test_empty_vm_list_rejected(self):
        with pytest.raises(ConfigurationError):
            fair_share_specs([], num_cores=4)


class TestTiers:
    def test_catalogue_instantiation(self):
        vms = vms_from_tiers([("a", "economy"), ("b", "performance")])
        assert vms[0].vcpus[0].utilization == DEFAULT_TIERS["economy"].utilization
        assert vms[1].vcpus[0].latency_ns == DEFAULT_TIERS["performance"].latency_ns

    def test_unknown_tier_rejected(self):
        with pytest.raises(ConfigurationError):
            vms_from_tiers([("a", "quantum")])


class TestFlatten:
    def test_flattens_in_order(self):
        vms = [make_vm("a", 0.2, MS, vcpu_count=2), make_vm("b", 0.2, MS)]
        names = [v.name for v in flatten_vcpus(vms)]
        assert names == ["a.vcpu0", "a.vcpu1", "b.vcpu0"]

    def test_detects_cross_vm_duplicates(self):
        # Two names repeat; the error names the first repeat in census
        # order.
        vm_a = VMSpec("a", (VCpuSpec("x", 0.1, MS), VCpuSpec("shared", 0.1, MS)))
        vm_b = VMSpec("b", (VCpuSpec("shared", 0.1, MS), VCpuSpec("x", 0.1, MS)))
        with pytest.raises(ConfigurationError, match="duplicate vCPU name 'shared'"):
            flatten_vcpus([vm_a, vm_b])


SRC = Path(__file__).resolve().parents[2] / "src"

#: Pickles a hashed spec to stdout (run under one hash seed).
DUMP = """
import pickle, sys
from repro.core.params import VCpuSpec
spec = VCpuSpec("vm0.vcpu0", 1.0, 1_000_000)
hash(spec)
sys.stdout.buffer.write(pickle.dumps(spec))
"""

#: Loads that pickle and looks it up among fresh specs (another seed).
LOAD = """
import json, pickle, sys
from repro.core.params import VCpuSpec
spec = pickle.loads(sys.stdin.buffer.read())
fresh = VCpuSpec("vm0.vcpu0", 1.0, 1_000_000)
print(json.dumps([
    spec == fresh,
    hash(spec) == hash(fresh),
    spec in {fresh},
    {fresh: 1}.get(spec),
    spec.needs_dedicated_core,
]))
"""


class TestVCpuSpecDerivedFields:
    """``needs_dedicated_core`` is derived once, at construction, and is
    invisible to equality, hashing and ``repr``; the pinned hash never
    travels in a pickle."""

    @settings(max_examples=200, deadline=None)
    @given(
        utilization=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        other=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    )
    def test_flag_follows_utilization(self, utilization, other):
        spec = VCpuSpec("vm0.vcpu0", utilization, MS)
        assert spec.needs_dedicated_core == (utilization >= 1.0)
        replaced = dataclasses.replace(spec, utilization=other)
        assert replaced.needs_dedicated_core == (other >= 1.0)
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and hash(copy) == hash(spec)
        assert copy.needs_dedicated_core == spec.needs_dedicated_core

    def test_equality_hash_and_repr_ignore_the_flag(self):
        spec = VCpuSpec("vm0.vcpu0", 0.5, MS)
        flipped = VCpuSpec("vm0.vcpu0", 0.5, MS)
        object.__setattr__(flipped, "needs_dedicated_core", True)
        assert flipped == spec
        assert hash(flipped) == hash(spec)
        assert repr(flipped) == repr(spec)
        assert "needs_dedicated_core" not in repr(spec)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.needs_dedicated_core = True  # type: ignore[misc]

    def test_replace_rejects_the_derived_flag(self):
        with pytest.raises(ValueError):
            dataclasses.replace(VCpuSpec("v", 0.5, MS), needs_dedicated_core=True)

    def test_pickle_leaves_the_pinned_hash_behind(self):
        spec = VCpuSpec("vm0.vcpu0", 0.5, MS)
        hash(spec)
        assert "_hash" in spec.__dict__
        assert "_hash" not in pickle.loads(pickle.dumps(spec)).__dict__

    def test_pickled_spec_is_found_under_another_hash_seed(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        dumped = subprocess.run(
            [sys.executable, "-c", DUMP],
            env=dict(env, PYTHONHASHSEED="1"),
            capture_output=True,
            timeout=120,
        )
        assert dumped.returncode == 0, dumped.stderr
        loaded = subprocess.run(
            [sys.executable, "-c", LOAD],
            env=dict(env, PYTHONHASHSEED="2"),
            input=dumped.stdout,
            capture_output=True,
            timeout=120,
        )
        assert loaded.returncode == 0, loaded.stderr
        assert json.loads(loaded.stdout) == [True, True, True, 1, True]
