"""Cache-key canonicalization and LRU result-cache behavior.

The serving story rests on one invariant: requests that *mean the same
run* hash to the same key (dict ordering, alias spellings, and
defaulted-vs-explicit params are surface syntax), and requests that
differ in any real parameter never collide.  These tests pin both
directions, plus the LRU/counter mechanics of :class:`ResultCache`.
"""

import pytest

from repro.server import (
    OpSpec,
    Param,
    ProtocolError,
    ResultCache,
    canonical_key,
    get_op,
)


def key_of(op, raw):
    spec = get_op(op)
    return canonical_key(spec.name, spec.canonicalize(raw))


class TestCanonicalization:
    def test_dict_ordering_is_irrelevant(self):
        a = {"seed": 3, "faults": True, "inject_bug": False}
        b = {"inject_bug": False, "faults": True, "seed": 3}
        assert list(a) != list(b)
        assert key_of("check", a) == key_of("check", b)

    def test_defaults_fill_identically(self):
        assert key_of("check", {"seed": 3}) == key_of(
            "check", {"seed": 3, "faults": False, "inject_bug": False}
        )

    def test_seed_aliases_hash_identically(self):
        assert key_of("check", {"seed": 7}) == key_of(
            "check", {"rng_seed": 7}
        )

    def test_conflicting_alias_spellings_rejected(self):
        with pytest.raises(ProtocolError) as exc:
            get_op("check").canonicalize({"seed": 1, "rng_seed": 1})
        assert exc.value.code == "bad_params"

    def test_differing_params_never_collide(self):
        keys = set()
        combos = [
            {"seed": s, "faults": f, "inject_bug": b}
            for s in range(10)
            for f in (False, True)
            for b in (False, True)
        ]
        for combo in combos:
            keys.add(key_of("check", combo))
        assert len(keys) == len(combos)

    def test_ops_never_collide_on_shared_params(self):
        # Same canonical params under different op names differ.
        params = get_op("check").canonicalize({"seed": 0})
        assert canonical_key("check", params) != canonical_key(
            "other", params
        )

    def test_unknown_param_rejected(self):
        with pytest.raises(ProtocolError) as exc:
            get_op("check").canonicalize({"seed": 0, "nodez": 4})
        assert exc.value.code == "bad_params"
        assert "nodez" in exc.value.message

    def test_missing_required_param_rejected(self):
        spec = OpSpec(
            name="x", fn="m:f", params=(Param("must", int),)
        )
        with pytest.raises(ProtocolError, match="must"):
            spec.canonicalize({})

    def test_type_coercion_is_strict(self):
        spec = get_op("check")
        with pytest.raises(ProtocolError):
            spec.canonicalize({"seed": "3"})  # strings are not ints
        with pytest.raises(ProtocolError):
            spec.canonicalize({"seed": True})  # no bool→int punning
        with pytest.raises(ProtocolError):
            spec.canonicalize({"seed": 0, "faults": 1})  # nor int→bool

    def test_string_params_accept_numeric_scalars(self):
        # The CLI's k=v parser JSON-types values, so a single-point
        # axis arrives as an int; it must mean the same request.
        assert key_of("sweep", {"nodes": 2}) == key_of(
            "sweep", {"nodes": "2"}
        )
        with pytest.raises(ProtocolError):
            get_op("sweep").canonicalize({"nodes": True})

    def test_choices_enforced(self):
        with pytest.raises(ProtocolError) as exc:
            get_op("simulate").canonicalize({"workload": "qsort"})
        assert "workload" in exc.value.message

    def test_unknown_op(self):
        for name in ("frobnicate", "space"):
            with pytest.raises(ProtocolError) as exc:
                get_op(name)
            assert exc.value.code == "unknown_op"

    def test_float_params_accept_ints(self):
        spec = OpSpec(name="x", fn="m:f", params=(Param("p", float, 0.5),))
        assert spec.canonicalize({"p": 1}) == {"p": 1.0}
        assert spec.canonicalize({}) == {"p": 0.5}

    def test_sweep_expansion_matches_cli_grid_order(self):
        spec = get_op("sweep")
        params = spec.canonicalize(
            {"experiment": "sssp", "nodes": "2,4", "copies": "1,2"}
        )
        points = [kwargs for _fn, kwargs in spec.expand(params)]
        assert [(p["nodes"], p["copies"]) for p in points] == [
            (2, 1),
            (2, 2),
            (4, 1),
            (4, 2),
        ]

    def test_sweep_rejects_bad_int_lists(self):
        spec = get_op("sweep")
        params = spec.canonicalize({"nodes": "2,four"})
        with pytest.raises(ProtocolError, match="comma-separated"):
            spec.expand(params)


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(4)
        hit, _ = cache.get("k")
        assert not hit
        cache.put("k", {"x": 1})
        hit, value = cache.get("k")
        assert hit and value == {"x": 1}
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_evicts_oldest(self):
        cache = ResultCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a: b is now oldest
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert len(cache) == 2

    def test_snapshot_counters(self):
        cache = ResultCache(8)
        cache.get("nope")
        cache.put("yes", 1)
        cache.get("yes")
        snap = cache.snapshot()
        assert snap == {"hits": 1, "misses": 1, "size": 1, "capacity": 8}


class TestPersistence:
    def test_entries_survive_a_restart(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = ResultCache(8, persist_path=path)
        cache.put("a", {"x": 1})
        cache.put("b", [1, 2, 3])
        warm = ResultCache(8, persist_path=path)
        assert warm.loaded == 2
        hit, value = warm.get("a")
        assert hit and value == {"x": 1}
        hit, value = warm.get("b")
        assert hit and value == [1, 2, 3]

    def test_reload_preserves_lru_order(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = ResultCache(8, persist_path=path)
        for k in ("a", "b", "c"):
            cache.put(k, k)
        cache.get("a")  # hits persist nothing, order comes from puts
        warm = ResultCache(2, persist_path=path)
        # Capacity shrank: only the most recent puts survive the load.
        assert warm.loaded == 2
        assert "b" in warm and "c" in warm and "a" not in warm

    def test_missing_file_means_cold_start(self, tmp_path):
        cache = ResultCache(8, persist_path=str(tmp_path / "nope.json"))
        assert cache.loaded == 0 and len(cache) == 0

    def test_torn_or_foreign_files_are_ignored(self, tmp_path):
        import json

        from repro.server.protocol import PROTOCOL_VERSION

        torn = tmp_path / "torn.json"
        torn.write_text('{"schema": ')
        assert ResultCache(8, persist_path=str(torn)).loaded == 0

        foreign = tmp_path / "foreign.json"
        foreign.write_text(
            json.dumps({"schema": PROTOCOL_VERSION + 1, "entries": [["k", 1]]})
        )
        assert ResultCache(8, persist_path=str(foreign)).loaded == 0

        malformed = tmp_path / "malformed.json"
        malformed.write_text(
            json.dumps({"schema": PROTOCOL_VERSION, "entries": {"k": 1}})
        )
        assert ResultCache(8, persist_path=str(malformed)).loaded == 0

    def test_too_deeply_nested_file_is_a_cold_start(self, tmp_path):
        # json.load recurses per nesting level: this raises
        # RecursionError, not ValueError.
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100_000)
        cache = ResultCache(8, persist_path=str(nested))
        assert cache.loaded == 0 and len(cache) == 0

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = ResultCache(8, persist_path=path)
        cache.put("k", 1)
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert leftovers == ["cache.json"]

    def test_snapshot_reports_loaded_only_when_persisting(self, tmp_path):
        assert "loaded" not in ResultCache(8).snapshot()
        path = str(tmp_path / "cache.json")
        ResultCache(8, persist_path=path).put("k", 1)
        snap = ResultCache(8, persist_path=path).snapshot()
        assert snap["loaded"] == 1
