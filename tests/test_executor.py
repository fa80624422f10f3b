"""Parallel executor and persistent run cache.

Covers: worker-pool fan-out vs the serial fallback (identical results),
batch deduplication (shared standard-caching twins run once), the disk
cache's hit/miss/invalidation behaviour across simulated process
restarts, and the ``MetricsSummary`` JSON round-trip the cache rests on.
"""

import dataclasses
import json

import pytest

from repro.core.protocol import CupConfig
from repro.experiments import executor, runcache
from repro.experiments.executor import (
    Cell,
    FaultSpec,
    cell_key,
    execute,
    run_cell,
)
from repro.experiments.runner import clear_cache, run_config, run_pair
from repro.metrics.collector import MetricsSummary
from repro.experiments.runcache import RunCache


def tiny_config(**overrides) -> CupConfig:
    """A seconds-fast cell: 16 nodes, one key, short time axis."""
    base = dict(
        num_nodes=16, total_keys=1, query_rate=1.0, seed=5,
        entry_lifetime=50.0, query_start=100.0, query_duration=300.0,
        drain=100.0, gc_interval=50.0, link_delay=0.01,
    )
    base.update(overrides)
    return CupConfig(**base)


@pytest.fixture(autouse=True)
def _fresh_execution_state(monkeypatch):
    """Each test starts with an empty memo and serial defaults.

    ``$REPRO_WORKERS`` is cleared so an exported value can't fan the
    run-counting tests out to workers (where the parent's counter
    never increments); the worker-config tests set it explicitly.
    """
    monkeypatch.delenv(executor.WORKERS_ENV, raising=False)
    clear_cache()
    executor.configure(None)
    yield
    clear_cache()
    executor.configure(None)


@pytest.fixture()
def run_counter(monkeypatch):
    """Counts actual simulation executions (cache hits don't count)."""
    from repro.core import protocol

    calls = {"n": 0}
    original = protocol.CupNetwork.run

    def counting(self, *args, **kwargs):
        calls["n"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(protocol.CupNetwork, "run", counting)
    return calls


class TestSummaryRoundTrip:
    def test_json_round_trip(self):
        summary = run_cell(Cell("x", tiny_config()))
        wire = json.dumps(summary.to_dict())
        restored = MetricsSummary.from_dict(json.loads(wire))
        assert restored == summary

    def test_from_dict_rejects_missing_field(self):
        payload = run_cell(Cell("x", tiny_config())).to_dict()
        payload.pop("miss_cost")
        with pytest.raises(ValueError, match="miss_cost"):
            MetricsSummary.from_dict(payload)

    def test_from_dict_rejects_unknown_field(self):
        payload = run_cell(Cell("x", tiny_config())).to_dict()
        payload["bogus_counter"] = 1
        with pytest.raises(ValueError, match="bogus_counter"):
            MetricsSummary.from_dict(payload)

    def test_to_dict_covers_every_field(self):
        summary = run_cell(Cell("x", tiny_config()))
        names = {f.name for f in dataclasses.fields(MetricsSummary)}
        assert set(summary.to_dict()) == names


class TestRunCache:
    def test_miss_then_hit(self, tmp_path):
        cache = RunCache(tmp_path, fingerprint="fp-a")
        summary = run_cell(Cell("x", tiny_config()))
        key = cell_key(Cell("x", tiny_config()))
        assert cache.get(key) is None
        cache.put(key, summary)
        assert cache.get(key) == summary
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1
        assert len(cache) == 1

    def test_fingerprint_change_invalidates(self, tmp_path):
        summary = run_cell(Cell("x", tiny_config()))
        key = cell_key(Cell("x", tiny_config()))
        RunCache(tmp_path, fingerprint="fp-a").put(key, summary)
        # Same root, same key, different code fingerprint: a miss.
        assert RunCache(tmp_path, fingerprint="fp-b").get(key) is None
        # A fresh instance with the original fingerprint still hits.
        assert RunCache(tmp_path, fingerprint="fp-a").get(key) == summary

    def test_corrupt_file_degrades_to_miss(self, tmp_path):
        cache = RunCache(tmp_path, fingerprint="fp-a")
        summary = run_cell(Cell("x", tiny_config()))
        key = cell_key(Cell("x", tiny_config()))
        cache.put(key, summary)
        for path in (tmp_path / "fp-a").glob("*.json"):
            path.write_text("{not json")
        assert cache.get(key) is None

    def test_code_fingerprint_is_stable(self):
        assert runcache.code_fingerprint() == runcache.code_fingerprint()
        assert len(runcache.code_fingerprint()) == 16


class TestCacheKey:
    """Every config field that can change a result is in the run key."""

    #: Fields that do not affect results, so they stay out of the key.
    NEUTRAL = {
        "trace": True,
        "checkpoint_path": "run.ckpt",
        "checkpoint_every_events": 1000,
        "checkpoint_every_seconds": 60.0,
    }
    #: A non-default value for every other field.  A new CupConfig field
    #: fails test_every_field_is_classified until it is listed here or
    #: in NEUTRAL.
    CHANGED = {
        "num_nodes": 32,
        "overlay_type": "chord",
        "link_delay": 0.02,
        "link_delay_jitter": 0.005,
        "mode": "standard",
        "policy": "linear:0.5",
        "replica_independent_cutoff": False,
        "capacity_fraction": 0.5,
        "capacity_rate": 10.0,
        "pfu_timeout": 10.0,
        "refresh_aggregation_window": 5.0,
        "refresh_sample_fraction": 0.5,
        "priority_profile": "flash-crowd",
        "reliable_transport": False,
        "keys_per_node": 2.0,
        "total_keys": 3,
        "replicas_per_key": 2,
        "entry_lifetime": 60.0,
        "query_rate": 2.0,
        "key_distribution": "zipf",
        "zipf_s": 1.2,
        "query_start": 50.0,
        "query_duration": 200.0,
        "drain": 50.0,
        "seed": 6,
        "gc_interval": None,
        "failure_sweep_interval": 30.0,
    }

    def base(self) -> CupConfig:
        # keys_per_node only counts while total_keys is unset.
        return tiny_config(total_keys=None)

    def test_every_field_is_classified(self):
        names = {field.name for field in dataclasses.fields(CupConfig)}
        assert names == set(self.NEUTRAL) | set(self.CHANGED)

    @pytest.mark.parametrize("name", sorted(CHANGED))
    def test_changing_a_key_field_changes_the_key(self, name):
        base = self.base()
        changed = base.variant(**{name: self.CHANGED[name]})
        assert getattr(changed, name) != getattr(base, name)
        assert cell_key(Cell("x", changed)) != cell_key(Cell("x", base))

    def test_neutral_fields_and_normalised_values_share_a_key(self):
        from repro.core.policies import make_policy

        base = self.base()
        key = cell_key(Cell("x", base))
        same = [
            base.variant(**self.NEUTRAL),
            base.variant(policy=make_policy(base.policy)),
            base.variant(total_keys=base.resolved_total_keys()),
        ]
        for config in same:
            assert cell_key(Cell("x", config)) == key


class TestExecute:
    def cells(self):
        return [
            Cell("a", tiny_config(seed=5)),
            Cell("b", tiny_config(seed=6)),
            Cell("c", tiny_config(query_rate=2.0)),
            Cell("std", tiny_config(mode="standard")),
        ]

    def test_serial_and_parallel_results_identical(self):
        serial = execute(self.cells(), workers=1, use_cache=False)
        parallel = execute(self.cells(), workers=4, use_cache=False)
        assert list(serial) == ["a", "b", "c", "std"]
        assert serial == parallel

    def test_serial_fallback_single_cell(self, run_counter):
        result = execute([Cell("only", tiny_config())], workers=8)
        assert run_counter["n"] == 1
        assert result["only"].queries_posted > 0

    def test_batch_dedupes_identical_cells(self, run_counter):
        config = tiny_config()
        results = execute([
            Cell("first", config),
            Cell("twin", tiny_config()),       # same key, distinct object
            Cell("other", tiny_config(seed=9)),
        ])
        assert run_counter["n"] == 2
        assert results["first"] is results["twin"]

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            execute([
                Cell("a", tiny_config()), Cell("a", tiny_config(seed=9)),
            ])

    def test_mapping_input(self):
        results = execute({"cup": tiny_config()})
        assert results["cup"].total_cost > 0

    def test_memo_serves_repeat_batches(self, run_counter):
        execute(self.cells())
        execute(self.cells())
        assert run_counter["n"] == 4

    def test_disk_cache_survives_process_restart(self, tmp_path, run_counter):
        runcache.configure(cache_dir=tmp_path, fingerprint="fp-a")
        first = execute(self.cells())
        cache = runcache.active()
        assert cache.stats.stores == 4
        # A new process has an empty memo but the same cache directory.
        clear_cache()
        runcache.configure(cache_dir=tmp_path, fingerprint="fp-a")
        second = execute(self.cells())
        assert runcache.active().stats.hits == 4
        assert run_counter["n"] == 4  # nothing re-simulated
        assert second == first

    def test_disk_cache_invalidated_by_fingerprint(self, tmp_path,
                                                   run_counter):
        runcache.configure(cache_dir=tmp_path, fingerprint="fp-a")
        execute([Cell("a", tiny_config())])
        clear_cache()
        runcache.configure(cache_dir=tmp_path, fingerprint="fp-b")
        execute([Cell("a", tiny_config())])
        assert run_counter["n"] == 2

    def test_use_cache_false_bypasses_disk(self, tmp_path, run_counter):
        runcache.configure(cache_dir=tmp_path, fingerprint="fp-a")
        execute([Cell("a", tiny_config())], use_cache=False)
        assert runcache.active().stats.stores == 0
        execute([Cell("a", tiny_config())], use_cache=False)
        assert run_counter["n"] == 2

    def test_run_config_reads_and_feeds_disk_cache(self, tmp_path,
                                                   run_counter):
        runcache.configure(cache_dir=tmp_path, fingerprint="fp-a")
        config = tiny_config()
        first = run_config(config)
        clear_cache()
        assert run_config(config) == first
        assert run_counter["n"] == 1


class TestRunPairCoherence:
    def test_twin_computed_once_across_experiments(self, run_counter):
        config = tiny_config()
        cup, std = run_pair(config)
        assert run_counter["n"] == 2
        # Another harness sharing the standard-caching twin: memo hit.
        again = run_config(config.variant(mode="standard"))
        assert run_counter["n"] == 2
        assert again is std
        # The twin is deduplicated inside parallel batches too.
        results = execute([
            Cell("x", config.variant(seed=11)),
            Cell("std", config.variant(mode="standard")),
        ])
        assert run_counter["n"] == 3
        assert results["std"] is std

    def test_pair_shares_workload(self):
        cup, std = run_pair(tiny_config())
        assert cup.queries_posted == std.queries_posted


class TestFaultCells:
    def test_fault_spec_validation(self):
        with pytest.raises(ValueError, match="bogus"):
            FaultSpec(configuration="bogus", reduced=0.5)

    def test_fault_cell_key_extends_config_key(self):
        config = tiny_config()
        plain = cell_key(Cell("a", config))
        faulted = cell_key(Cell(
            "a", config, FaultSpec("up-and-down", reduced=0.5)
        ))
        assert faulted[: len(plain)] == plain
        assert "faults" in faulted

    def test_fault_cells_cache_separately(self, run_counter):
        config = tiny_config()
        spec = FaultSpec(
            "once-down-always-down", reduced=0.0, fraction=1.0, warmup=50.0
        )
        plain = execute([Cell("p", config)])["p"]
        faulted = execute([Cell("f", config, spec)])["f"]
        assert run_counter["n"] == 2
        # Identical fault cell: memo hit, not a third simulation.
        assert execute([Cell("f2", config, spec)])["f2"] is faulted
        assert run_counter["n"] == 2
        assert faulted != plain


class TestWorkerConfiguration:
    def test_configure_overrides_env(self, monkeypatch):
        monkeypatch.setenv(executor.WORKERS_ENV, "7")
        assert executor.default_workers() == 7
        executor.configure(workers=3)
        assert executor.default_workers() == 3
        executor.configure(None)
        assert executor.default_workers() == 7

    def test_invalid_env_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv(executor.WORKERS_ENV, "many")
        assert executor.default_workers() == 1

    def test_configure_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            executor.configure(workers=0)
