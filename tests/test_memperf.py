"""Cache, L3 partitioning, and training-flow estimator checks."""

import numpy as np
import pytest

from warpsim.memperf import (
    MAX_BATCH_VISITS,
    CacheModel,
    HierarchySpec,
    L3Config,
    MemoryLevelSpec,
    SpecInvalid,
    TrainingFlowSpec,
    default_hierarchy,
    estimate_training_flow,
    simulate_cache,
    simulate_l3,
)


def lru_oracle(trace, capacity):
    """Step-by-step reference LRU built on a plain list."""
    resident, hits, misses = [], 0, 0
    for line in trace:
        if line in resident:
            hits += 1
            resident.remove(line)
            resident.append(line)
        else:
            misses += 1
            if capacity > 0:
                if len(resident) >= capacity:
                    resident.pop(0)
                resident.append(line)
    return hits, misses


def shared_lru_oracle(traces, capacity):
    """One plain-list LRU fed the traces round-robin, one step of each live trace at a time."""
    resident, hits, misses = [], [0] * len(traces), [0] * len(traces)
    for step in range(max(len(t) for t in traces)):
        for core, trace in enumerate(traces):
            if step >= len(trace):
                continue
            line = trace[step]
            if line in resident:
                hits[core] += 1
                resident.remove(line)
            else:
                misses[core] += 1
                if capacity == 0:
                    continue
                if len(resident) >= capacity:
                    resident.pop(0)
            resident.append(line)
    return list(zip(hits, misses))


class TestLruCache:
    def test_working_set_fits_only_cold_misses(self):
        trace = list(range(8)) * 10
        hits, misses = simulate_cache(trace, CacheModel(capacity_lines=16))
        assert misses == 8
        assert hits == 72

    def test_cyclic_sweep_capacity_plus_one_always_misses(self):
        cap = 8
        trace = list(range(cap + 1)) * 3
        hits, misses = simulate_cache(trace, CacheModel(capacity_lines=cap))
        assert hits == 0
        assert misses == len(trace)
        assert (hits, misses) == lru_oracle(trace, cap)

    def test_single_address_repeated(self):
        hits, misses = simulate_cache([5] * 100, CacheModel(capacity_lines=1))
        assert (hits, misses) == (99, 1)

    def test_random_traces_match_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(300):
            cap = int(rng.integers(1, 16))
            trace = rng.integers(0, 24, size=int(rng.integers(1, 120))).tolist()
            cache = CacheModel(capacity_lines=cap)
            assert simulate_cache(trace, cache) == lru_oracle(trace, cap)

    def test_inclusion_property(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            cap = int(rng.integers(1, 12))
            trace = rng.integers(0, 20, size=100).tolist()
            _, small = simulate_cache(trace, CacheModel(capacity_lines=cap))
            _, large = simulate_cache(trace, CacheModel(capacity_lines=cap + 1))
            assert large <= small

    def test_negative_address_rejected(self):
        with pytest.raises(SpecInvalid):
            simulate_cache([-1], CacheModel(capacity_lines=4))


class TestL3Policies:
    def test_single_active_core_dynamic_at_most_static(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            trace = rng.integers(0, 32, size=200).tolist()
            traces = [trace, [], [], []]
            cfg_s = L3Config(total_lines=16, cores=4, policy="static")
            cfg_d = L3Config(total_lines=16, cores=4, policy="dynamic")
            static = simulate_l3(traces, cfg_s)
            dynamic = simulate_l3(traces, cfg_d)
            assert dynamic[0][1] <= static[0][1]
            for core in (1, 2, 3):
                assert static[core] == dynamic[core] == (0, 0)

    def test_tiny_traces_tie(self):
        traces = [[1, 2, 1, 2], [3, 4, 3, 4]]
        st = simulate_l3(traces, L3Config(total_lines=8, cores=2, policy="static"))
        dy = simulate_l3(traces, L3Config(total_lines=8, cores=2, policy="dynamic"))
        assert st == dy == [(2, 2), (2, 2)]

    def test_adversarial_thrash_static_beats_dynamic(self):
        # Core A cycles a palindrome that fits its static quota of 4; core B
        # floods fresh lines. In the shared pool B stretches A's reuse
        # distance past the full capacity at the turnaround line.
        reps = 10
        a_trace = [0, 1, 2, 3, 3, 2, 1, 0] * reps
        b_trace = [1000 + i for i in range(len(a_trace))]
        cfg_s = L3Config(total_lines=8, cores=2, policy="static")
        cfg_d = L3Config(total_lines=8, cores=2, policy="dynamic")
        static = simulate_l3([a_trace, b_trace], cfg_s)
        dynamic = simulate_l3([a_trace, b_trace], cfg_d)
        assert static[0][1] == 4  # cold misses only
        assert static[0][1] < dynamic[0][1]

    def test_policies_match_isolated_oracle(self):
        rng = np.random.default_rng(54)
        traces = [rng.integers(0, 40, size=80).tolist() for _ in range(3)]
        cfg = L3Config(total_lines=12, cores=3, policy="static")
        got = simulate_l3(traces, cfg)
        for core, trace in enumerate(traces):
            assert got[core] == lru_oracle(trace, 4)

    def test_dynamic_shared_occupancy(self):
        # Two cores hammering the same single line share it in dynamic mode.
        traces = [[7] * 10, [7] * 10]
        dy = simulate_l3(traces, L3Config(total_lines=2, cores=2, policy="dynamic"))
        assert dy[0] == (9, 1)
        assert dy[1] == (10, 0)

    def test_unequal_traces_match_list_oracles(self):
        rng = np.random.default_rng(56)
        for _ in range(150):
            cores = int(rng.integers(1, 5))
            total = int(rng.integers(0, 20))
            traces = [rng.integers(0, 24, size=int(rng.integers(0, 60))).tolist() for _ in range(cores)]
            dynamic = simulate_l3(traces, L3Config(total_lines=total, cores=cores, policy="dynamic"))
            assert dynamic == shared_lru_oracle(traces, total)
            static = simulate_l3(traces, L3Config(total_lines=total, cores=cores, policy="static"))
            assert static == [lru_oracle(trace, total // cores) for trace in traces]

    @pytest.mark.parametrize("policy", ["static", "dynamic"])
    def test_negative_address_rejected(self, policy):
        with pytest.raises(SpecInvalid, match="^negative line address -1$"):
            simulate_l3([[3, -1]], L3Config(total_lines=4, cores=1, policy=policy))

    def test_config_validation(self):
        with pytest.raises(SpecInvalid):
            L3Config(total_lines=8, cores=0, policy="static")
        with pytest.raises(SpecInvalid):
            L3Config(total_lines=8, cores=1, policy="magic")
        with pytest.raises(SpecInvalid):
            simulate_l3([[1], [2]], L3Config(total_lines=8, cores=3, policy="static"))


def flow_spec(dataset, batch, epochs, vram, ram):
    hierarchy = HierarchySpec(
        [
            MemoryLevelSpec("RAM", 10, 100, 10**9),
            MemoryLevelSpec("VRAM", 12, 100, 2 * 10**9),
            MemoryLevelSpec("SSD", 1000, 10, 10**12),
        ]
    )
    return TrainingFlowSpec(
        dataset_bytes=dataset,
        batch_bytes=batch,
        epochs=epochs,
        hierarchy=hierarchy,
        vram_capacity=vram,
        ram_capacity=ram,
    )


def flow_oracle(spec):
    """The stager as two plain lists of (batch, size), least recent first, in FlowReport JSON."""
    disk, ram = spec.hierarchy.level("SSD"), spec.hierarchy.level("RAM")
    sizes, left = [], spec.dataset_bytes
    while left > 0:
        sizes.append(min(spec.batch_bytes, left))
        left -= sizes[-1]
    vram_list, ram_list = [], []

    def hit(resident, batch):
        for entry in resident:
            if entry[0] == batch:
                resident.remove(entry)
                resident.append(entry)
                return True
        return False

    def stage(resident, capacity, batch, size):
        if size > capacity:
            return
        while sum(s for _, s in resident) + size > capacity:
            resident.pop(0)
        resident.append((batch, size))

    epochs, total = [], 0.0
    for epoch in range(1, spec.epochs + 1):
        stages = []
        for batch, size in enumerate(sizes):
            if hit(vram_list, batch):
                continue
            if not hit(ram_list, batch):
                stages.append({"stage": "disk_to_ram", "bytes": size, "time": disk.latency + size / disk.bandwidth})
                stage(ram_list, spec.ram_capacity, batch, size)
            stages.append({"stage": "ram_to_vram", "bytes": size, "time": ram.latency + size / ram.bandwidth})
            stage(vram_list, spec.vram_capacity, batch, size)
        time = 0.0
        for s in stages:
            time += s["time"]
        total += time
        epochs.append(
            {
                "epoch": epoch,
                "disk_to_ram_bytes": sum(s["bytes"] for s in stages if s["stage"] == "disk_to_ram"),
                "ram_to_vram_bytes": sum(s["bytes"] for s in stages if s["stage"] == "ram_to_vram"),
                "time": time,
                "stages": stages,
            }
        )
    return {"epochs": epochs, "total_time": total}


class TestTrainingFlow:
    def test_random_specs_match_list_oracle(self):
        rng = np.random.default_rng(57)
        seen = set()
        for _ in range(300):
            batch = int(rng.integers(1, 40))
            dataset = int(rng.integers(1, 12 * batch))
            vram = int(rng.integers(batch, 6 * batch))
            ram = int(rng.integers(0, batch)) if rng.random() < 0.25 else int(rng.integers(batch, 10 * batch))
            epochs = int(rng.integers(1, 5))
            seen |= {
                ("partial last batch", dataset % batch != 0),
                ("RAM below one batch", ram < batch),
                ("RAM below VRAM", ram < vram),
                ("epochs", epochs),
            }
            spec = flow_spec(dataset, batch, epochs, vram, ram)
            assert estimate_training_flow(spec).to_json() == flow_oracle(spec)
        assert {("partial last batch", True), ("RAM below one batch", True), ("RAM below VRAM", True)} <= seen
        assert {("epochs", n) for n in (1, 2, 3, 4)} <= seen

    def test_fits_in_vram_epoch2_free(self):
        report = estimate_training_flow(flow_spec(400, 100, 3, vram=500, ram=500))
        first, second = report.epochs[0], report.epochs[1]
        assert first.disk_to_ram_bytes == 400
        assert first.ram_to_vram_bytes == 400
        assert second.disk_to_ram_bytes == 0
        assert second.ram_to_vram_bytes == 0
        assert second.time == 0

    def test_fits_ram_not_vram_drops_disk_only(self):
        # Three batches of 100; VRAM holds one batch, RAM holds all three.
        report = estimate_training_flow(flow_spec(300, 100, 2, vram=150, ram=1000))
        first, second = report.epochs
        disk_cost = 1000 + 100 / 10
        ram_cost = 10 + 100 / 100
        assert first.disk_to_ram_bytes == 300
        assert first.time == pytest.approx(3 * disk_cost + 3 * ram_cost)
        assert second.disk_to_ram_bytes == 0
        assert second.ram_to_vram_bytes == 300
        assert second.time == pytest.approx(3 * ram_cost)

    def test_epochs_never_get_slower(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            dataset = int(rng.integers(100, 2000))
            batch = int(rng.integers(10, 200))
            vram = int(rng.integers(batch, 2500))
            ram = int(rng.integers(batch, 2500))
            report = estimate_training_flow(flow_spec(dataset, batch, 4, vram, ram))
            times = [e.time for e in report.epochs]
            assert all(t <= times[0] + 1e-12 for t in times[1:])

    def test_doubling_disk_latency_never_faster(self):
        base = flow_spec(1000, 100, 3, vram=250, ram=450)
        slow_levels = [
            MemoryLevelSpec(lv.name, lv.latency * 2 if lv.name == "SSD" else lv.latency, lv.bandwidth, lv.capacity)
            for lv in base.hierarchy.levels
        ]
        slow = TrainingFlowSpec(
            dataset_bytes=1000,
            batch_bytes=100,
            epochs=3,
            hierarchy=HierarchySpec(slow_levels),
            vram_capacity=250,
            ram_capacity=450,
        )
        assert estimate_training_flow(slow).total_time >= estimate_training_flow(base).total_time

    def test_monotone_in_capacity_and_bandwidth(self):
        small = estimate_training_flow(flow_spec(1000, 100, 3, vram=150, ram=300))
        big = estimate_training_flow(flow_spec(1000, 100, 3, vram=1050, ram=1300))
        assert big.total_time <= small.total_time

    def test_batch_must_fit_vram(self):
        with pytest.raises(SpecInvalid):
            flow_spec(1000, 600, 1, vram=500, ram=800)

    @pytest.mark.parametrize("vram, ram", [(50, -1), (50, float("nan")), (float("nan"), 50)])
    def test_negative_or_nan_capacity_rejected(self, vram, ram):
        with pytest.raises(SpecInvalid, match="^capacity must be non-negative, got"):
            estimate_training_flow(flow_spec(100, 10, 1, vram=vram, ram=ram))

    @pytest.mark.parametrize("field, value, message", [
        ("ram_capacity", "big", "ram_capacity must be a finite number of bytes, got 'big'"),
        ("vram_capacity", "big", "vram_capacity must be a finite number of bytes, got 'big'"),
        ("ram_capacity", True, "ram_capacity must be a finite number of bytes, got True"),
        ("vram_capacity", float("inf"), "vram_capacity must be a finite number of bytes, got inf"),
        ("ram_capacity", -1, "capacity must be non-negative, got -1 for ram_capacity"),
        ("epochs", 2.9, "epochs must be a whole number, got 2.9"),
        ("epochs", True, "epochs must be a whole number, got True"),
        ("dataset_bytes", "4096", "dataset_bytes must be a whole number, got '4096'"),
        ("batch_bytes", None, "batch_bytes must be a whole number, got None"),
    ])
    def test_spec_fields_must_be_numbers(self, field, value, message):
        spec = {"dataset_bytes": 4096, "batch_bytes": 1024, "epochs": 2, field: value}
        with pytest.raises(SpecInvalid) as caught:
            TrainingFlowSpec.from_json(spec)
        assert str(caught.value) == message

    def test_batch_visits_are_capped(self):
        flow_spec(MAX_BATCH_VISITS // 2, 1, 2, vram=1, ram=0)  # at the cap
        message = (f"epochs=2 over dataset_bytes={MAX_BATCH_VISITS // 2 + 1} in batches of batch_bytes=1 "
                   f"make {MAX_BATCH_VISITS + 2} batch visits, more than the cap of {MAX_BATCH_VISITS}")
        with pytest.raises(SpecInvalid) as caught:
            flow_spec(MAX_BATCH_VISITS // 2 + 1, 1, 2, vram=1, ram=0)
        assert str(caught.value) == message

    @pytest.mark.parametrize("ram_bandwidth, disk_latency", [(1e-320, 1000), (100, 1e306)])
    def test_stage_times_must_stay_finite(self, ram_bandwidth, disk_latency):
        hierarchy = HierarchySpec(
            [
                MemoryLevelSpec("RAM", 10, ram_bandwidth, 10**9),
                MemoryLevelSpec("VRAM", 12, 100, 2 * 10**9),
                MemoryLevelSpec("SSD", disk_latency, 10, 10**12),
            ]
        )
        with pytest.raises(SpecInvalid) as caught:
            TrainingFlowSpec(1000, 100, 200, hierarchy, vram_capacity=100, ram_capacity=0)
        assert str(caught.value) == (
            "staging batch_bytes=100 from disk and RAM in 2000 batch visits takes a time that is not finite"
        )

    def test_whole_float_sizes_run_as_ints(self):
        spec = TrainingFlowSpec.from_json({"dataset_bytes": 4096.0, "batch_bytes": 1024, "epochs": 2.0})
        assert (spec.dataset_bytes, spec.epochs) == (4096, 2) and type(spec.epochs) is int
        want = TrainingFlowSpec.from_json({"dataset_bytes": 4096, "batch_bytes": 1024, "epochs": 2})
        assert estimate_training_flow(spec).to_json() == estimate_training_flow(want).to_json()

    def test_last_partial_batch_counted_once(self):
        report = estimate_training_flow(flow_spec(250, 100, 1, vram=1000, ram=1000))
        assert report.epochs[0].disk_to_ram_bytes == 250


class TestHierarchyValidation:
    def test_default_profile_is_valid(self):
        default_hierarchy()

    def test_latency_inversion_rejected(self):
        with pytest.raises(SpecInvalid):
            HierarchySpec(
                [
                    MemoryLevelSpec("L1", 5, 100, 100),
                    MemoryLevelSpec("RAM", 2, 100, 1000),
                ]
            )

    def test_capacity_inversion_rejected(self):
        with pytest.raises(SpecInvalid):
            HierarchySpec(
                [
                    MemoryLevelSpec("L1", 1, 100, 1000),
                    MemoryLevelSpec("RAM", 2, 100, 100),
                ]
            )

    def test_unknown_level_name(self):
        with pytest.raises(SpecInvalid):
            MemoryLevelSpec("Floppy", 1, 1, 1)

    def test_lookup_of_a_level_the_hierarchy_lacks(self):
        with pytest.raises(SpecInvalid, match="^hierarchy has no level named 'Tape'$"):
            default_hierarchy().level("Tape")

    def test_hierarchy_json_that_is_not_an_array(self):
        with pytest.raises(SpecInvalid, match="^hierarchy must be a JSON array of level objects$"):
            HierarchySpec.from_json("x")

    @pytest.mark.parametrize("key", ["latency", "bandwidth", "capacity"])
    def test_level_parameter_past_float_range_is_spec_invalid(self, key):
        params = {"latency": 1, "bandwidth": 1, "capacity": 1, key: 10**400}
        with pytest.raises(SpecInvalid) as caught:
            MemoryLevelSpec("RAM", **params)
        assert str(caught.value) == f"level RAM: {key} must be within float range, got {10**400}"

    def test_flow_requires_disk_level(self):
        hierarchy = HierarchySpec(
            [
                MemoryLevelSpec("RAM", 10, 100, 10**9),
                MemoryLevelSpec("VRAM", 12, 100, 2 * 10**9),
            ]
        )
        spec = TrainingFlowSpec(
            dataset_bytes=100, batch_bytes=50, epochs=1, hierarchy=hierarchy
        )
        with pytest.raises(SpecInvalid):
            estimate_training_flow(spec)

    @pytest.mark.parametrize("latency, capacity, message", [
        (2, 1000, "pyramid violation: RAM is below L1 but has lower latency"),
        (9, 100, "pyramid violation: RAM is below L1 but has smaller capacity"),
        (2, 100, "pyramid violation: RAM is below L1 but has lower latency"),  # both axes: latency is checked first
    ])
    def test_pyramid_violation_messages(self, latency, capacity, message):
        with pytest.raises(SpecInvalid) as caught:
            HierarchySpec([MemoryLevelSpec("Registers", 1, 100, 10), MemoryLevelSpec("L1", 5, 100, 500),
                           MemoryLevelSpec("RAM", latency, 100, capacity)])
        assert caught.value.args == (message,)

    def test_disk_level_follows_disk_levels_not_the_level_order(self):
        ram, vram = MemoryLevelSpec("RAM", 10, 100, 10**9), MemoryLevelSpec("VRAM", 12, 100, 2 * 10**9)
        ssd = MemoryLevelSpec("SSD", 2000, 10, 10**13)
        hdd_above_ssd = HierarchySpec([ram, vram, MemoryLevelSpec("HDD", 1000, 1, 10**12), ssd])
        reports = [
            estimate_training_flow(TrainingFlowSpec(1000, 100, 2, hierarchy=h, vram_capacity=250, ram_capacity=450))
            for h in (hdd_above_ssd, HierarchySpec([ram, vram, ssd]))
        ]
        assert reports[0].to_json() == reports[1].to_json()
        assert reports[0].epochs[0].stages[0].time == ssd.latency + 100 / ssd.bandwidth

    def test_first_is_in_the_order_of_names(self):
        h = default_hierarchy()
        assert h.first(("External", "SSD")) is h.levels[-1]
        assert h.first(("Tape", "L1", "Registers")) is h.levels[1]
        assert h.first(("Tape",)) is None and h.first(()) is None

    def test_finiteness_guard_reads_the_disk_level_of_the_estimate(self):
        # 100 bytes at HDD's bandwidth of 5e-324 would take an infinite time, but SSD stages every batch.
        hierarchy = HierarchySpec([
            MemoryLevelSpec("RAM", 10, 100, 10**9),
            MemoryLevelSpec("VRAM", 12, 100, 2 * 10**9),
            MemoryLevelSpec("SSD", 1000, 10, 10**12),
            MemoryLevelSpec("HDD", 10**4, 5e-324, 10**13),
        ])
        assert hierarchy.level("HDD").latency + 100 / hierarchy.level("HDD").bandwidth == float("inf")
        report = estimate_training_flow(TrainingFlowSpec(1000, 100, 2, hierarchy=hierarchy))
        assert 0 < report.total_time < float("inf")

    def test_json_round_trip(self):
        h = default_hierarchy()
        again = HierarchySpec.from_json(h.to_json())
        assert again.to_json() == h.to_json()

    @pytest.mark.parametrize("key, value, message", [
        ("latency", None, "hierarchy[1] latency must be a number, got None"),
        ("bandwidth", "fast", "hierarchy[1] bandwidth must be a number, got 'fast'"),
        ("capacity", True, "hierarchy[1] capacity must be a number, got True"),
        ("latency", float("nan"), "level VRAM: parameters must be positive"),
        ("bandwidth", float("nan"), "level VRAM: parameters must be positive"),
        ("capacity", float("nan"), "level VRAM: parameters must be positive"),
        ("latency", float("inf"), "level VRAM: latency must be finite"),  # else times print as Infinity, not JSON
    ])
    def test_level_parameters_must_be_numbers(self, key, value, message):
        levels = [
            {"name": "RAM", "latency": 100, "bandwidth": 1 << 32, "capacity": 1 << 33},
            {"name": "VRAM", "latency": 120, "bandwidth": 1 << 32, "capacity": 1 << 34},
        ]
        levels[1][key] = value
        with pytest.raises(SpecInvalid) as caught:
            HierarchySpec.from_json(levels)
        assert str(caught.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: L3Config(-1, 1, "static"), "total_lines must be non-negative"),
        (lambda: TrainingFlowSpec(0, 1, 1), "dataset_bytes and batch_bytes must be positive"),
        (lambda: TrainingFlowSpec(1, 1, 0), "epochs must be >= 1"),
    ],
    ids=["l3_negative_lines", "flow_empty_dataset", "flow_no_epochs"],
)
def test_constructor_range_checks(build, message):
    with pytest.raises(SpecInvalid) as caught:
        build()
    assert str(caught.value) == message
