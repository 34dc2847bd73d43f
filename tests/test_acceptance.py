"""Acceptance gate: one test per criterion, each ending with a single
PASS line (a failing criterion fails its test and reports detail).

Criteria 1-5 are quantitative reproductions of the reference traffic,
storage, detection, and timing figures; 6-9 are property suites. The
convergence clause of criterion 9 is known not to hold at the default
step size: the stop rule |delta gamma| < epsilon fires whenever the
ringing price turns, not only at the equilibrium, so few seeds stop
within varsigma and those that do stop away from it (ROADMAP item 5).
Its test reports the non-convergent seeds honestly rather than
weakening the threshold.
"""

import random

import pytest

from gridshare import harness, market, numtheory, pedersen, protocol, sharing
from gridshare.transport import Transcript
from tests.conftest import TEST_MR_ROUNDS

KB = 8 * 1024   # bits per KB


def _report(line):
    print(f"\n[acceptance] {line}")


@pytest.fixture(scope="module")
def benchmark_run():
    """N=100 worst-case secure slot with the online reveal exercised."""
    config = harness.ScenarioConfig(mr_rounds=TEST_MR_ROUNDS,
                                    worst_case=True, force_reveal=True)
    return harness.run_scenario(config)


@pytest.fixture(scope="module")
def detection_summary():
    config = harness.ScenarioConfig(mr_rounds=TEST_MR_ROUNDS)
    return harness.detection_experiment(config, n_targets=15,
                                        perturb_range=(0.05, 0.10),
                                        n_runs=500)


def test_criterion_1_per_phase_traffic_and_storage(benchmark_run):
    rep = benchmark_run
    checks = [
        ("TA negotiation traffic", rep.traffic_kb["negotiation"]["TA"], 39.06),
        ("TO negotiation traffic", rep.traffic_kb["negotiation"]["TO"], 0.39),
        ("key broadcast", rep.traffic_kb["keygen"]["TO"], 0.376),
        ("TA commitment traffic", rep.traffic_kb["commitment"]["TA"], 0.905),
        ("TO check storage", rep.storage_kb["commitment_check"]["TO"], 12.46),
        ("TA online traffic", rep.traffic_kb["online"]["TA"], 0.402),
        ("TA negotiation storage", rep.storage_kb["negotiation"]["TA"], 0.0039),
        ("TA commitment storage", rep.storage_kb["commitment"]["TA"], 0.0039),
        ("TA online storage", rep.storage_kb["online"]["TA"], 0.0039),
    ]
    for name, measured, reference in checks:
        assert measured == pytest.approx(reference, abs=0.01), \
            f"{name}: measured {measured:.6f} KB vs reference {reference} KB"
    _report("criterion 1 PASS: all per-phase traffic/storage figures "
            "within 0.01 KB")


def test_criterion_2_secure_vs_plain_totals():
    config = harness.ScenarioConfig(mr_rounds=TEST_MR_ROUNDS,
                                    worst_case=True, force_reveal=True)
    cmp = harness.compare_baseline(config)
    secure, plain = cmp.secure, cmp.plain
    checks = [
        ("secure TA traffic", secure.total_traffic_kb("TA"), 40.37),
        ("plain TA traffic", plain.total_traffic_kb("TA"), 0.39),
        ("secure TO traffic", secure.total_traffic_kb("TO"), 0.77),
        ("plain TO traffic", plain.total_traffic_kb("TO"), 0.39),
    ]
    for name, measured, reference in checks:
        assert measured == pytest.approx(reference, abs=0.01), \
            f"{name}: measured {measured:.6f} KB vs reference {reference} KB"
    assert cmp.prices_equal
    _report("criterion 2 PASS: secure/plain totals within 0.01 KB, "
            "prices bit-equal")


def test_criterion_3_detection_accuracy(detection_summary):
    s = detection_summary
    assert s.runs == 500 and s.targets_per_run == 15
    assert s.false_negatives == 0, \
        f"{s.false_negatives} perturbed agents went unflagged"
    assert s.false_positives == 0, f"{s.false_positives} honest agents flagged"
    assert s.wrong_list == 0, f"{s.wrong_list} flags landed in the wrong list"
    assert s.accuracy == 1.0
    _report(f"criterion 3 PASS: 500 runs x 15 targets, "
            f"{s.true_positives} true positives, 0 false positives, "
            f"all in the correct list")


def test_criterion_4_key_broadcast_sweep():
    config = harness.ScenarioConfig(n_tas=4, varsigma=5,
                                    mr_rounds=TEST_MR_ROUNDS)
    values = [1010, 1110, 1210, 1310, 1410]
    rows = harness.sweep(config, "bits_q", values)
    measured = {r["axis_value"]: r["traffic_kb"] for r in rows
                if r["phase"] == "keygen" and r["entity"] == "TO"}
    for bits_q in values:
        expected = (3 * bits_q + 20) / KB
        assert measured[bits_q] == pytest.approx(expected, abs=0.001), \
            f"bits_q={bits_q}: {measured[bits_q]:.6f} vs {expected:.6f} KB"
    assert measured[1010] == pytest.approx(0.372, abs=0.001)
    assert measured[1410] == pytest.approx(0.519, abs=0.001)
    _report("criterion 4 PASS: key broadcast 0.372 -> 0.519 KB across "
            "bits_q 1010 -> 1410, each within 0.001 KB")


def test_criterion_5_end_to_end_timing(benchmark_run):
    timings = benchmark_run.timings
    slot_seconds = sum(v for k, v in timings.items() if k != "keygen")
    assert slot_seconds <= 10.0, \
        f"secure slot took {slot_seconds:.2f} s (> 10 s budget)"
    _report(f"criterion 5 PASS: secure slot (excl. keygen) in "
            f"{slot_seconds:.2f} s; keygen took {timings['keygen']:.2f} s")


def test_criterion_6_crypto_oracles(full_key):
    rng = random.Random(0)
    # Miller-Rabin against a sieve, exhaustive to 10^6.
    limit = 1_000_000
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    for n in range(2, limit + 1):
        assert numtheory.is_probable_prime(n, 16, rng) == bool(sieve[n]), n
    # Pedersen homomorphism, exhaustive at q=11.
    toy = numtheory.GroupParams(q=11, p=5, b=2, g=3, h=4)
    for m1 in range(5):
        for r1 in range(5):
            for m2 in range(5):
                for r2 in range(5):
                    lhs = pedersen.product(
                        [pedersen.commit(toy, m1, r1),
                         pedersen.commit(toy, m2, r2)], toy)
                    assert lhs == pedersen.commit(toy, m1 + m2, r1 + r2)
    # Homomorphism and open/verify round trip at full size.
    for _ in range(1000):
        m1, r1 = rng.randrange(full_key.p), rng.randrange(full_key.p)
        m2, r2 = rng.randrange(full_key.p), rng.randrange(full_key.p)
        lhs = pedersen.product(
            [pedersen.commit(full_key, m1, r1),
             pedersen.commit(full_key, m2, r2)], full_key)
        assert lhs == pedersen.commit(
            full_key, (m1 + m2) % full_key.p, (r1 + r2) % full_key.p)
        c = pedersen.commit(full_key, m1, r1)
        assert pedersen.verify_open(full_key, c, m1, r1)
        assert not pedersen.verify_open(full_key, c, m1,
                                        (r1 + 1) % full_key.p)
    _report("criterion 6 PASS: Miller-Rabin (exhaustive to 10^6), "
            "homomorphism, and verify_open oracles all agree")


def test_criterion_7_sharing_properties():
    rng = random.Random(1)
    p = (1 << 20) + 7
    codec = sharing.FixedPointCodec(p, 10_000)
    for _ in range(1000):
        x = rng.uniform(-50, 50)
        enc = codec.encode(x)
        n = rng.randrange(2, 8)
        assert sharing.reconstruct(sharing.split(enc, n, p, rng), p, n) == enc
    for n in (2, 3, 10, 100):
        secrets = [rng.randrange(p) for _ in range(n)]
        rows = [sharing.split(s, n, p, rng) for s in secrets]
        aggregates = [sharing.reconstruct(list(col), p, n)
                      for col in zip(*rows)]
        assert sum(aggregates) % p == sum(secrets) % p
    # (N-1)-share indistinguishability, exhaustive at p=11, N=3: every
    # (share1, share2) pair occurs exactly once for any secret.
    for secret in range(11):
        pairs = {(s1, s2) for s1 in range(11) for s2 in range(11)}
        assert len(pairs) == 121
        for s1, s2 in pairs:
            s3 = (secret - s1 - s2) % 11
            assert (s1 + s2 + s3) % 11 == secret
    _report("criterion 7 PASS: round-trip, two-layer aggregation, and "
            "exhaustive partial-share uniformity hold")


def test_criterion_8_protocol_properties(full_key, detection_summary):
    # 500 honest commitment checks: the detection experiment asserts
    # "accept" on every one of its 500 honest commitment rounds before
    # injecting adversaries, and exclusivity on every adversarial run.
    assert detection_summary.runs == 500
    assert detection_summary.list_overlaps == 0
    # A single corrupted commitment is rejected.
    codec = sharing.FixedPointCodec(full_key.p, 10_000)
    transcript = Transcript()
    profiles = market.sample_profiles(4, random.Random(2))
    tas = [protocol.TAgent(pr, market.random_source(3, f"ta{pr.index}"))
           for pr in profiles]
    for ta in tas:
        ta.state.E = 1.0
    protocol.store_forecasts(tas, codec, transcript)
    commitments, e_tot, r_tot = protocol.run_commitment(tas, full_key,
                                                        transcript)
    bad = list(commitments)
    bad[2] = pedersen.commit(full_key, tas[2].E_n + 1, tas[2].r_n)
    assert protocol.run_commitment_check(full_key, bad, e_tot, r_tot,
                                         transcript) == "reject"
    # Secure/plain clearing-price bit-equality over 100 seeded scenarios.
    config = market.MarketConfig()
    codec = sharing.FixedPointCodec(sharing.NEGOTIATION_MODULUS, 10_000)
    for seed in range(100):
        profiles = market.sample_profiles(
            100, market.random_source(seed, "profiles"))
        prices = []
        for secure in (True, False):
            tas = [protocol.TAgent(pr, market.random_source(
                seed, f"ta{pr.index}")) for pr in profiles]
            gamma, _, _ = protocol.run_negotiation(
                tas, config, codec, Transcript(), secure=secure)
            prices.append(gamma)
        assert prices[0] == prices[1], f"seed {seed}: {prices}"
    _report("criterion 8 PASS: 500/500 honest checks accepted, corruption "
            "rejected, 100/100 secure==plain prices, lists exclusive")


def test_criterion_9_market_properties():
    rng = random.Random(4)
    for _ in range(100_000):
        zeta = rng.uniform(0.001, 0.2)
        v_lo, v_hi = market.update_duals(
            rng.uniform(0, 5), rng.uniform(0, 20), rng.uniform(-30, 30),
            rng.uniform(0, 20), zeta)
        e = market.update_energy(rng.uniform(0, 30), rng.uniform(0, 50),
                                 zeta, rng.uniform(0, 50),
                                 rng.uniform(0.05, 0.2), v_lo, v_hi)
        gamma = market.update_price(rng.uniform(0, 50), zeta,
                                    rng.uniform(-400, 400))
        assert v_lo >= 0 and v_hi >= 0 and e >= 0 and gamma >= 0
    # Fixed-point stationarity.
    config = market.MarketConfig()
    stationary = [
        market.TAProfile(0, market.SELLER, 10.0, 0.0, 0.0,
                         config.gamma_init, 0.1),
        market.TAProfile(1, market.BUYER, -10.0, 0.0, 0.0,
                         config.gamma_init, 0.1),
    ]
    result = market.central_clearing(stationary, config)
    assert result.status == market.CONVERGED
    assert result.gamma == config.gamma_init
    # Convergence before the iteration cap at the default step size.
    non_convergent = []
    for seed in range(100):
        profiles = market.sample_profiles(
            100, market.random_source(seed, "profiles"))
        result = market.central_clearing(profiles, config)
        if result.status != market.CONVERGED:
            non_convergent.append(seed)
    converged = 100 - len(non_convergent)
    _report(f"criterion 9: non-negativity and stationarity PASS; "
            f"{converged}/100 scenarios converged before the cap at the "
            f"default step size. Non-convergent seeds: {non_convergent}")
    assert converged >= 95, (
        f"only {converged}/100 balanced scenarios converged within "
        f"varsigma={config.varsigma} at zeta={config.zeta}; "
        f"non-convergent seeds: {non_convergent}. The price rings "
        f"around the equilibrium: |delta gamma| < epsilon holds whenever "
        f"it turns, so the seeds that stop do so 6.7-22.9% away from the "
        f"equilibrium price, and after varsigma worst-case rounds the "
        f"price is a median 4.7% off. Step-size and stop-rule tuning did "
        f"not fix this within varsigma; see ROADMAP item 5.")
