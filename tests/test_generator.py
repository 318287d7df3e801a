"""Seeded instance generator: PRNG, config defaults, conformance."""
import hashlib
import json
import math
from pathlib import Path

import pytest

import vapep
from vapep import (
    GeneratorConfig, SplitMix64, available_backends, canonical_json, generate, instance_to_doc,
)
from vapep.generator import substream
from vapep.model import MAX_USERS

DATA = Path(__file__).with_name("data")


# --------------------------------------------------------------------------
# the raw stream

def test_splitmix64_published_vectors():
    # reference output of the SplitMix64 algorithm for seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_seed_masked_to_64_bits():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()
    assert SplitMix64(-1).next_u64() == SplitMix64((1 << 64) - 1).next_u64()


def test_randint_bounds_and_coverage():
    rng = SplitMix64(42)
    seen = set()
    for _ in range(400):
        v = rng.randint(3, 9)
        assert 3 <= v <= 9
        seen.add(v)
    assert seen == set(range(3, 10))
    assert rng.randint(5, 5) == 5
    with pytest.raises(ValueError):
        rng.randint(2, 1)


def test_sample_subsets():
    rng = SplitMix64(7)
    for _ in range(200):
        n = rng.randint(1, 10)
        c = rng.randint(0, n)
        got = rng.sample(n, c)
        assert got == sorted(got)
        assert len(set(got)) == len(got) == c
        assert all(0 <= v < n for v in got)
    assert SplitMix64(1).sample(4, 4) == [0, 1, 2, 3]
    assert SplitMix64(1).sample(4, 0) == []
    with pytest.raises(ValueError):
        SplitMix64(1).sample(3, 4)
    with pytest.raises(ValueError):
        SplitMix64(1).sample(3, -1)


def test_sample_is_roughly_uniform():
    # every 2-subset of range(4) should show up over many draws
    rng = SplitMix64(99)
    seen = set()
    for _ in range(600):
        seen.add(tuple(rng.sample(4, 2)))
    assert len(seen) == 6


def test_subset_masks_replay_randint_and_sample(monkeypatch):
    # same masks and the same stream state after as the per-user calls, on
    # every built kernel
    for name in available_backends():
        monkeypatch.setenv("APEP_KERNEL", name)
        for k in list(range(1, 11)) + [17, 30]:
            for cmax in sorted({1, max(1, (k - 1) // 2), k}):
                fast, slow = SplitMix64(k * 31 + cmax), SplitMix64(k * 31 + cmax)
                want = []
                for _ in range(60):
                    picks = slow.sample(k, slow.randint(1, cmax))
                    want.append(sum(1 << i for i in picks))
                assert fast.subset_masks(60, k, cmax) == want, (name, k, cmax)
                assert fast.next_u64() == slow.next_u64()
        with pytest.raises(ValueError):
            SplitMix64(1).subset_masks(5, 3, 4)
        with pytest.raises(ValueError):
            SplitMix64(1).subset_masks(5, 3, 0)


def test_sampler_follows_apep_kernel(monkeypatch, capsys):
    # choosing the compiled kernel when it is not built stops the generator
    # as it stops solve: exit 2, nothing written
    from vapep import _kernels, cli
    monkeypatch.delitem(_kernels._BACKENDS, "cython", raising=False)
    monkeypatch.setenv("APEP_KERNEL", "cython")
    with pytest.raises(ValueError, match="kernel backend 'cython' unavailable"):
        generate(GeneratorConfig(n=10, k=3))
    assert cli.main(["generate", "--n", "10", "--k", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "kernel backend 'cython' unavailable" in err


def test_substreams_are_tagged():
    a = substream(5, "auth")
    b = substream(5, "scopes")
    plain = SplitMix64(5)
    va, vb, vp = a.next_u64(), b.next_u64(), plain.next_u64()
    assert len({va, vb, vp}) == 3
    # repeatable: the tag is a pure function of the purpose string
    assert substream(5, "auth").next_u64() == va


# --------------------------------------------------------------------------
# configuration

def test_config_defaults():
    cfg = GeneratorConfig(n=80)
    assert cfg.k == 8
    assert cfg.tau == 4
    assert cfg.alpha == 1
    assert cfg.q_sod == 8
    assert cfg.seed == 0
    tiny = GeneratorConfig(n=5)
    assert tiny.k == 1
    assert tiny.tau == 0
    assert tiny.q_sod == 0


def test_config_validation():
    with pytest.raises(ValueError, match="n must be an integer >= 2"):
        GeneratorConfig(n=1)
    with pytest.raises(ValueError):
        GeneratorConfig(n=True)
    with pytest.raises(ValueError):
        GeneratorConfig(n=40, k=0)
    with pytest.raises(ValueError):
        GeneratorConfig(n=40, k=31)
    with pytest.raises(ValueError):
        GeneratorConfig(n=40, tau=-1)
    with pytest.raises(ValueError):
        GeneratorConfig(n=40, alpha=0)
    with pytest.raises(ValueError):
        GeneratorConfig(n=40, alpha=10**5 + 1)
    with pytest.raises(ValueError):
        GeneratorConfig(n=40, q_sod=-1)
    with pytest.raises(ValueError):
        GeneratorConfig(n=40, k=1, q_sod=2)
    with pytest.raises(ValueError):
        GeneratorConfig(n=40, seed=-1)
    with pytest.raises(ValueError):
        GeneratorConfig(n=40, seed=1 << 64)


def test_config_refuses_too_many_users_before_drawing(monkeypatch, capsys):
    from vapep import cli

    def no_draws(*args):
        raise AssertionError("the sampler ran")

    monkeypatch.setattr(SplitMix64, "subset_masks", no_draws)
    with pytest.raises(ValueError, match="at most 1000000 users are supported"):
        GeneratorConfig(n=MAX_USERS + 1, k=3)
    assert cli.main(["generate", "--n", str(MAX_USERS + 1), "--k", "3"]) == 2
    assert "error: at most 1000000 users are supported" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["k", "tau", "alpha", "q_sod", "seed"])
def test_config_rejects_bools(field):
    # GeneratorConfig(n=10, k=True) generated, and wrote "k": true into meta
    with pytest.raises(ValueError, match=f"{field} must be"):
        GeneratorConfig(n=10, **{field: True})


# --------------------------------------------------------------------------
# generated instances

def test_same_seed_same_bytes():
    cfg = GeneratorConfig(n=30, k=4, tau=1, alpha=2, q_sod=3, seed=123)
    one = canonical_json(instance_to_doc(generate(cfg)))
    two = canonical_json(instance_to_doc(generate(cfg)))
    assert one == two
    moved = GeneratorConfig(n=30, k=4, tau=1, alpha=2, q_sod=3, seed=124)
    assert canonical_json(instance_to_doc(generate(moved))) != one


def test_scope_draws_do_not_disturb_authorizations():
    few = generate(GeneratorConfig(n=40, k=4, q_sod=0, seed=9))
    many = generate(GeneratorConfig(n=40, k=4, q_sod=6, seed=9))
    assert few.auth.base == many.auth.base


def test_conformance_n80_k8():
    cfg = GeneratorConfig(n=80, k=8, seed=1)
    inst = generate(cfg)
    assert inst.resources == tuple(f"s{i}" for i in range(1, 9))
    assert inst.users == tuple(f"u{j}" for j in range(1, 81))
    # authorized-step counts in [1, floor(0.5 * 7)] = [1, 3]
    counts = [len(inst.auth.base[u]) for u in inst.users]
    assert all(1 <= c <= 3 for c in counts)
    assert {1, 2, 3} == set(counts)
    # constraint multiset: q_sod separation + k coverage + 1 pool-size term
    kinds = [c.kind for c in inst.constraints]
    assert kinds.count("sod_u") == cfg.q_sod == 8
    assert kinds.count("card_lb") == 8
    assert kinds.count("user_count") == 1
    assert len(kinds) == 17
    for c in inst.constraints:
        if c.kind == "sod_u":
            assert c.spec.slope == 10 and c.spec.table == ()
            assert c.scope[0] != c.scope[1]
        elif c.kind == "card_lb":
            assert c.t == cfg.tau + 1 == 5
            assert c.spec.slope == 10
        else:
            assert c.quadratic
    covered = {c.scope[0] for c in inst.constraints if c.kind == "card_lb"}
    assert covered == set(inst.resources)
    assert inst.auth.pair_penalty == 1


def test_alpha_scales_penalties():
    inst = generate(GeneratorConfig(n=40, k=4, alpha=3, seed=2))
    for c in inst.constraints:
        if c.kind == "sod_u":
            assert c.spec.slope == 30
        elif c.kind == "card_lb":
            assert c.spec.slope == 10
    assert inst.auth.pair_penalty == 3


def test_meta_block():
    cfg = GeneratorConfig(n=24, k=3, tau=2, alpha=5, q_sod=4, seed=77)
    meta = generate(cfg).meta["generator"]
    assert meta == {
        "algorithm": "splitmix64",
        "version": 1,
        "seed": 77,
        "n": 24,
        "k": 3,
        "tau": 2,
        "alpha": 5,
        "q_sod": 4,
    }


def test_mean_count_matches_uniform_model():
    # c ~ Uniform[1, 3] for k=8: mean 2, variance 2/3; the empirical mean
    # over 10^4 users stays within three standard errors
    inst = generate(GeneratorConfig(n=10**4, k=8, tau=0, q_sod=0, seed=31))
    counts = [len(inst.auth.base[u]) for u in inst.users]
    mean = sum(counts) / len(counts)
    sigma = math.sqrt((2 / 3) / len(counts))
    assert abs(mean - 2) <= 3 * sigma


def test_base_rederivable_from_documented_stream():
    # recompute the authorization base with a hand-rolled FNV-1a tag and the
    # exported stream class; byte-for-byte agreement pins the draw order
    cfg = GeneratorConfig(n=25, k=7, seed=8181)
    inst = generate(cfg)
    h = 0xCBF29CE484222325
    for byte in b"auth":
        h = ((h ^ byte) * 0x100000001B3) & ((1 << 64) - 1)
    rng = SplitMix64(cfg.seed ^ h)
    cmax = max(1, (cfg.k - 1) // 2)
    for j in range(cfg.n):
        c = rng.randint(1, cmax)
        picks = frozenset(f"s{i + 1}" for i in rng.sample(cfg.k, c))
        assert inst.auth.base[f"u{j + 1}"] == picks


def test_small_k_clamps_count_interval():
    # k = 2 gives max(1, floor(0.5 * 1)) = 1 authorized step per user
    inst = generate(GeneratorConfig(n=30, k=2, seed=3))
    assert all(len(inst.auth.base[u]) == 1 for u in inst.users)


def test_generated_instance_solves():
    inst = generate(GeneratorConfig(n=12, k=2, tau=1, seed=5))
    res = vapep.solve(inst)
    assert res.total_weight >= 0
    vapep.validate_relation(inst, res.relation)
    assert res.relation.is_complete(inst)


def test_generate_pinned_bytes(tmp_path, monkeypatch):
    # sha256 of `vapep generate` output, recorded before the generator's
    # draw loop and the JSON writer were last rewritten; the grid covers
    # k = 1 (no separation pairs), k = 2..4 (one step per user), k = 5..8
    # (count draws with rejection), k = 30 and the option overrides
    from vapep import cli
    pinned = json.loads((DATA / "generate_sha256.json").read_text())
    for name in available_backends():  # the draws run in the selected kernel
        monkeypatch.setenv("APEP_KERNEL", name)
        for entry in pinned:
            out = tmp_path / "instance.json"
            assert cli.main(["generate", *entry["args"], "-o", str(out)]) == 0
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            assert digest == entry["sha256"], (name, entry["args"])
