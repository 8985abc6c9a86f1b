"""Fuzz/property tests for the registry: names, digests, artifacts.

The registry is the deployment catalogue of the serving stack, so its three
contracts are hardened here with randomized inputs:

* **Canonical names** — ``PlanKey.parse`` must never crash on arbitrary
  file stems, and every constructible key must survive the
  canonical-name round trip (keys that could not are rejected at
  construction time, so no published artifact can be unreachable).
* **Digest lookup** — prefix resolution must be exact: short prefixes are
  rejected, unknown prefixes and ambiguous prefixes raise ``KeyError``.
* **Artifacts** — a truncated or corrupt ``.npz`` surfaces a typed
  :class:`PlanArtifactError` (naming the file) without poisoning the rest
  of the catalogue.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models import make_mlp
from repro.runtime import compile_model
from repro.serve import PlanArtifactError, PlanKey, PlanRegistry, parse_bits

# Tokens that are valid by construction: no "__", no edge underscores.
_token = st.from_regex(r"[a-z0-9][a-z0-9\-]{0,10}", fullmatch=True)
_bits = st.one_of(st.none(), st.integers(min_value=1, max_value=64))


def _tiny_plan(seed: int):
    return compile_model(
        make_mlp(input_size=16, hidden_sizes=(4,), mapping="acm",
                 quantizer_bits=4, seed=seed)
    )


@pytest.fixture(scope="module")
def artifact_pool(tmp_path_factory):
    """Four distinct tiny plan artifacts, reused across fuzz examples."""
    directory = tmp_path_factory.mktemp("artifact-pool")
    keys = [PlanKey("mlp", bits, mapping)
            for bits, mapping in ((4, "acm"), (4, "de"), (6, "acm"), (None, "bc"))]
    for seed, key in enumerate(keys):
        _tiny_plan(seed).save(directory / f"{key.canonical()}.npz")
    return directory, keys


# ---------------------------------------------------------------------- #
# Canonical-name parsing
# ---------------------------------------------------------------------- #
class TestPlanKeyFuzz:
    @given(stem=st.text(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_parse_never_crashes_and_round_trips_when_it_accepts(self, stem):
        key = PlanKey.parse(stem)
        if key is not None:
            assert key.canonical() == stem
            assert PlanKey.parse(key.canonical()) == key

    @given(model=_token, bits=_bits, mapping=_token)
    @settings(max_examples=100, deadline=None)
    def test_every_constructible_key_round_trips(self, model, bits, mapping):
        key = PlanKey(model, bits, mapping)
        assert PlanKey.parse(key.canonical()) == key

    @pytest.mark.parametrize("model,mapping", [
        ("a__b", "acm"),     # separator collision
        ("a_", "acm"),       # trailing _ merges into the separator
        ("_a", "acm"),       # leading _ merges into the separator
        ("lenet", "de__x"),
        ("", "acm"),
        ("a/b", "acm"),      # path traversal
        ("a\x00b", "acm"),
    ])
    def test_non_round_trippable_names_are_rejected_at_construction(
        self, model, mapping
    ):
        with pytest.raises(ValueError):
            PlanKey(model, 4, mapping)

    @pytest.mark.parametrize("bits", [0, -3, 2.5, True, "4"])
    def test_invalid_bits_rejected(self, bits):
        with pytest.raises(ValueError):
            PlanKey("mlp", bits, "acm")

    def test_registry_refuses_to_publish_unreachable_names(self, tmp_path):
        registry = PlanRegistry(tmp_path)
        with pytest.raises(ValueError):
            registry.publish(_tiny_plan(0), model="a__b", bits=4, mapping="acm")

    @given(token=st.text(max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_parse_bits_never_crashes_unexpectedly(self, token):
        try:
            bits = parse_bits(token)
        except ValueError:
            return
        assert bits is None or bits >= 0

    @given(stem=st.text(alphabet="ab_4", min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_underscore_heavy_stems_never_produce_invalid_keys(self, stem):
        """Stems full of underscores either parse to a valid key or to None —
        never to a key that fails its own validation."""
        key = PlanKey.parse(stem)
        if key is not None:
            # Constructing the same key again must not raise.
            assert PlanKey(key.model, key.bits, key.mapping) == key


# ---------------------------------------------------------------------- #
# Digest lookup
# ---------------------------------------------------------------------- #
class TestDigestFuzz:
    @pytest.fixture
    def registry(self, artifact_pool, tmp_path):
        directory, _ = artifact_pool
        shutil.copytree(directory, tmp_path / "plans")
        return PlanRegistry(tmp_path / "plans")

    def test_every_digest_resolves_to_its_own_artifact(self, registry):
        for key in registry.keys():
            digest = registry.digest(key.model, key.bits, key.mapping)
            plan = registry.get_by_digest(digest)
            expected = registry.get(key.model, key.bits, key.mapping)
            inputs = np.zeros((1, 16))
            np.testing.assert_array_equal(plan.run(inputs), expected.run(inputs))

    @given(prefix=st.text(alphabet="0123456789abcdef", min_size=0, max_size=7))
    @settings(max_examples=50, deadline=None)
    def test_short_prefixes_rejected(self, artifact_pool, prefix):
        directory, _ = artifact_pool
        registry = PlanRegistry(directory)
        with pytest.raises(ValueError):
            registry.get_by_digest(prefix)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_unknown_prefixes_raise_keyerror(self, artifact_pool, data):
        directory, _ = artifact_pool
        registry = PlanRegistry(directory)
        known = {entry["digest"] for entry in registry.describe()}
        prefix = data.draw(
            st.text(alphabet="0123456789abcdef", min_size=8, max_size=64)
        )
        if any(digest.startswith(prefix) for digest in known):
            return  # astronomically unlikely, but then the lookup may succeed
        with pytest.raises(KeyError):
            registry.get_by_digest(prefix)

    def test_ambiguous_prefix_raises(self, artifact_pool, tmp_path):
        directory, keys = artifact_pool
        shutil.copytree(directory, tmp_path / "plans")
        # Two identical artifact bytes under different keys: every shared
        # prefix is ambiguous.
        source = tmp_path / "plans" / f"{keys[0].canonical()}.npz"
        shutil.copyfile(source, tmp_path / "plans" / "copy__4b__acm.npz")
        registry = PlanRegistry(tmp_path / "plans")
        digest = registry.digest(keys[0].model, keys[0].bits, keys[0].mapping)
        with pytest.raises(KeyError, match="ambiguous"):
            registry.get_by_digest(digest)


# ---------------------------------------------------------------------- #
# Corrupt artifacts
# ---------------------------------------------------------------------- #
class TestCorruptArtifacts:
    @pytest.mark.parametrize("corruption", ["truncate", "garbage", "empty"])
    def test_bad_artifact_raises_typed_error_and_spares_the_rest(
        self, artifact_pool, tmp_path, corruption
    ):
        directory, keys = artifact_pool
        shutil.copytree(directory, tmp_path / "plans")
        victim_key, survivor_key = keys[0], keys[1]
        victim = tmp_path / "plans" / f"{victim_key.canonical()}.npz"
        original = victim.read_bytes()
        if corruption == "truncate":
            victim.write_bytes(original[: len(original) // 2])
        elif corruption == "garbage":
            victim.write_bytes(b"\x00" * 64)
        else:
            victim.write_bytes(b"")
        registry = PlanRegistry(tmp_path / "plans")
        with pytest.raises(PlanArtifactError, match=victim.name):
            registry.get(victim_key.model, victim_key.bits, victim_key.mapping)
        # The rest of the catalogue still serves.
        survivor = registry.get(
            survivor_key.model, survivor_key.bits, survivor_key.mapping
        )
        assert survivor.run(np.zeros((1, 16))).shape == (1, 10)
        # Repairing the artifact heals the key without a restart.
        victim.write_bytes(original)
        healed = registry.get(victim_key.model, victim_key.bits, victim_key.mapping)
        assert healed.run(np.zeros((1, 16))).shape == (1, 10)

