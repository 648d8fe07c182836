"""Golden games: a seed maps to the same log bytes across versions.

Replay tests only show that one version agrees with itself.  These
digests pin the full log of seeded games, so a change that claims to
keep games byte-identical is checked against the games earlier versions
played.  The n = 4000 games pin the closing search at full size: it
fills its whole budget there and ends truncated.  A deliberate change
to how seeds map to games must update the digests in the same change
and say so in CHANGES.md.
"""

import hashlib
from random import Random

import pytest

from hamgame import runner
from hamgame.board import GameConfig
from hamgame.runner import run_game

GOLDEN = {
    ("random", 200, 0):
        "d2cfdad6eb8130d69c6e3cca1313c6a0374ff6b89a63828b3675c0ae3bb21957",
    ("random", 200, 1):
        "c3e72bb1488995c6dade51a06b7ecd278e32c6b014e7a12e29135fe8f2010639",
    ("random", 300, 0):
        "288eb65a5bb2d2fa6e38de79b04548af82dddd52bf02f4f151f6c6782d432f3e",
    ("random", 300, 1):
        "d20f38b20c46ed895f14b5f718eccbcd8f5f9f3caece1042cf1e59be069bd07f",
    ("random", 1000, 0):
        "24f7bd93b9b33a0284b2ee3782742dadd1d6d50d8bf06af6c249c7c9fd1752b7",
    ("random", 4000, 0):
        "21f269ec0df4669d906a45b545c907ab8cb51c3905aff9565005c6be2b47b600",
    ("pairkiller", 200, 0):
        "0982d00883ab81c46b4219d3c6b2a487b25ff2cafc1c9852fad0af8926ecde9b",
    ("pairkiller", 200, 1):
        "b34b0a08c171573c17e35bfb2663e69c5dd456e102c088c99986c8bd9c2d707c",
    ("pairkiller", 300, 0):
        "4c563ca89fea94c1682cf690c299f3612edc8f45427c9ae0f3900746b5e45e3c",
    ("pairkiller", 300, 1):
        "520cbcff8a7328bcc5d2d7140659c387a8767240c3f3138da041873aae9903aa",
    ("pairkiller", 1000, 0):
        "616bf7aecefbab476238c81f00aeaaad528503a090c5553e3cf4866232be75e7",
    ("pairkiller", 4000, 0):
        "809b619afb98df4842a14f61027e646898a2bc98c96c44e0904923b8bae439f6",
    ("maxdanger", 200, 0):
        "333f3a5aadda325c906a36fd8de6b5daa827eecc10f7e0a4711823122350588d",
    ("maxdanger", 200, 1):
        "ff70a37c65820d3f331ac136826b389059dfd267bea1c5498a2d0e9b0fe8f637",
    ("maxdanger", 300, 0):
        "cd0d9b19915947279d51b300b4d304030d3894a6bcf1297b49b2f57917af5922",
    ("maxdanger", 300, 1):
        "9c28d4281a8718732e5216c7f05566deea77d9a2535a518d7bc0fd5a19c3e9cc",
    ("isolator", 200, 0):
        "5e3b43f254b1c10448e5a3603881c81b2c00b75e2eda969c84672a6c9d6618d6",
    ("isolator", 200, 1):
        "a3eabd26e49f4f393e035504256430e7a872bc9f0a453b860fa40fea3bd109fa",
    ("isolator", 1000, 0):
        "dec8556116347bba07081626c01b3efef50fd0bec9007754511c25594f38eecb",
    ("maxdanger", 1000, 0):
        "6a399883266ab64bee8e095b63153338be5120f55687758b628c32fd35c67686",
}

# With audits on, the log's end record carries the live audit's figures,
# and a won game carries its cycle certificate.
AUDITED_GAME = ("random", 200, 0)
AUDITED_DIGEST = \
    "507a9600f6cd9951637ed03c71c9caffb19fc65467794a7c1e64030f23afb038"

# An audited star-claiming game: its end record carries the expansion
# audit's witnesses.
AUDITED_ISOLATOR_GAME = ("isolator", 300, 0)
AUDITED_ISOLATOR_DIGEST = \
    "c50311813f4d4230ee16960710d6fdf663abc599d5bf1dda9581ed6fb53845a3"

# At audit level full, the end record also carries the endpoint-pair
# counts of Maker's endpoint_pairs_scan at each closing search.
FULL_AUDIT_GAME = ("random", 200, 0)
FULL_AUDIT_DIGEST = \
    "2570f4df43f6993a29181f89850893986292369d385eaa7065a0597954b6983f"

# Audited games whose expansion audit fails at size 3 in its full triple
# scan: the maxdanger game's end record lists triples among its
# witnesses, and the random game at beta 0.5 hits the failure cap inside
# the scan, so its pass rate pins how many triples were checked by then.
TRIPLE_AUDIT_GAMES = {
    ("maxdanger", 50, 0, 0.25):
        "adb3cf8f9cc59176da75cbef32ea283315440b1775fb6b8214d4a8aaef4e32eb",
    ("random", 100, 0, 0.5):
        "39a0e489125fb0ea898467e6adb73db0eb07d630ea287479a74ae51aa43f6093",
}

# n = 12 with b = 10 fills the board within a few turns, so the random
# Breaker's rejection loop gives up and samples from the enumerated rest.
FALLBACK_GAME = (12, 10, 0)
FALLBACK_DIGEST = \
    "76184792e67c388a409db298a23ff2e5aa8eccd18e5e502714d62757b6a26327"


def log_digest(cfg: GameConfig, policy: str) -> str:
    text = run_game(cfg, policy).log.dumps()
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("policy, n, seed", list(GOLDEN))
def test_seed_plays_the_pinned_game(policy, n, seed):
    cfg = GameConfig.scaled(n, seed=seed, audit_level="off")
    assert log_digest(cfg, policy) == GOLDEN[policy, n, seed]


def test_audited_game_is_pinned():
    policy, n, seed = AUDITED_GAME
    cfg = GameConfig.scaled(n, seed=seed, audit_level="cheap")
    assert log_digest(cfg, policy) == AUDITED_DIGEST


def test_audited_isolator_game_is_pinned():
    policy, n, seed = AUDITED_ISOLATOR_GAME
    cfg = GameConfig.scaled(n, seed=seed, audit_level="cheap")
    result = run_game(cfg, policy)
    assert result.stats["expansion_witnesses"]
    text = result.log.dumps()
    assert hashlib.sha256(text.encode()).hexdigest() == AUDITED_ISOLATOR_DIGEST


@pytest.mark.parametrize("policy, n, seed, beta", list(TRIPLE_AUDIT_GAMES))
def test_triple_audit_game_is_pinned(policy, n, seed, beta):
    cfg = GameConfig.scaled(n, seed=seed, beta=beta, audit_level="cheap")
    result = run_game(cfg, policy)
    witnesses = result.stats["expansion_witnesses"]
    assert any(size == 3 for size, *_ in witnesses) \
        or not result.stats["expansion_exact_complete"]
    text = result.log.dumps()
    assert hashlib.sha256(text.encode()).hexdigest() == \
        TRIPLE_AUDIT_GAMES[policy, n, seed, beta]


def test_full_audit_game_is_pinned():
    policy, n, seed = FULL_AUDIT_GAME
    cfg = GameConfig.scaled(n, seed=seed, audit_level="full")
    result = run_game(cfg, policy)
    assert result.stats["pair_counts"]
    text = result.log.dumps()
    assert hashlib.sha256(text.encode()).hexdigest() == FULL_AUDIT_DIGEST


def test_enumeration_fallback_fires_and_is_pinned(monkeypatch):
    sampled: list[int] = []

    class SpyRandom(Random):
        def sample(self, population, k, **kwargs):
            sampled.append(k)
            return super().sample(population, k, **kwargs)

    game_rng = runner.game_rng

    def spy_game_rng(cfg, role):
        rng = game_rng(cfg, role)
        if role != "breaker":
            return rng
        spy = SpyRandom()
        spy.setstate(rng.getstate())
        return spy

    monkeypatch.setattr(runner, "game_rng", spy_game_rng)
    n, b, seed = FALLBACK_GAME
    cfg = GameConfig.scaled(n, b=b, seed=seed, audit_level="off")
    assert log_digest(cfg, "random") == FALLBACK_DIGEST
    assert sampled, "the >64-miss fallback never ran"
