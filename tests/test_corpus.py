"""Same-bits corpus: one sha256 per layer over seeded inputs, against a
committed hex value.

A change that claims to keep a layer's outputs must keep its digest.  The
expansion digest hashes integers, flags and error messages only, so it does
not depend on the platform.  The chain, spectral and tracker digests hash
float64 results bit for bit, so they also pin the numpy build's arithmetic.
A change that moves a digest must name it and the correctness fix that
requires it.
"""

import hashlib
import math
import random
from fractions import Fraction

from cfdim import transfer
from cfdim.cantor import (
    CantorSpec,
    construct_sequences,
    construct_sequences_runlength,
    local_dimension_series,
    sample_measure,
)
from cfdim.cf_core import RealInput, expand
from cfdim.dim_solver import predim_tilde, spectral_dim
from cfdim.verify import LebesgueDigitChain, RecordTracker, RunMaxTracker

EXPAND_DIGEST = "9d65b5864ffd45af60813d5668eadcd5c306d1bc188703a94083343a9bef27e4"
CHAIN_DIGEST = "70430166741c240da77c82072f0d8777678dcb32097be3c889f4f256d873a5fc"
SPECTRAL_DIGEST = "670d06257b179fb83e8bcb8f7f9c68160091f6116cc64918ae95e3ed6a70cf62"
TRACKER_DIGEST = "ba9e769f43bc7ea05a4faa59901c621bdd4e1bc3b86f5eceeced727daa8b5224"
CANTOR_DIGEST = "fdbcd6404327b5ba7f89960c9a8d885dad18240b51bb9964607b157a490ce77d"


def _rationals(rng, count):
    for _ in range(count):
        q = rng.randrange(2, 2 ** rng.randrange(2, 129) + 1)
        # p = 0 and p = q fall outside (0,1); they pin the range message
        yield RealInput.rational, (rng.randrange(0, q + 1), q), rng.randrange(1, 120)


def _surds(rng, count):
    for k in range(count):
        d = rng.randrange(2, 10**12 + 1)
        if k % 97 == 0:
            d = math.isqrt(d) ** 2  # a square radicand
        v = rng.choice((-1, 1)) * rng.randrange(1, 4)
        w = rng.choice((-1, 1)) * rng.randrange(1, 21)
        # (u + v sqrt(d)) / w lies in (0,1) for the |w| integers u next to
        # f = floor(-v sqrt(d)); a sixth of the u step just outside them
        f = math.isqrt(v * v * d)
        f = -f - 1 if v > 0 else f
        lo, hi = (f + 1, f + w) if w > 0 else (f + w + 1, f)
        u = rng.choice((lo - 1, hi + 1)) if rng.randrange(6) == 0 else rng.randrange(lo, hi + 1)
        yield RealInput.surd, (u, v, w, d), rng.randrange(1, 300)


def _decimals(rng, count):
    for _ in range(count):
        s = "0." + "".join(rng.choice("0123456789") for _ in range(rng.randrange(20, 401)))
        n = rng.randrange(1, 200)
        yield RealInput.decimal_input, (s,), n
        yield RealInput.decimal_input, (s, rng.randrange(64, 513)), n


def expand_digest() -> str:
    """sha256 over `repr((digits, exhausted, complete))` of `expand` for
    2 000 rationals (denominators up to 2^128), 2 000 surds (radicands up to
    10^12, |w| <= 20, v in +-1..3, about a sixth out of range) and 300
    decimals of 20-400 digits at the default budget and at 64-512 bits; an
    input that raises hashes `Type: message` instead."""
    rng = random.Random(20261020)
    h = hashlib.sha256()
    for gen, count in ((_rationals, 2000), (_surds, 2000), (_decimals, 300)):
        for make, args, n in gen(rng, count):
            try:
                seq = expand(make(*args), n)
                line = repr((seq.digits, seq.exhausted, seq.complete))
            except Exception as exc:  # noqa: BLE001 - the error is the output
                line = f"{type(exc).__name__}: {exc}"
            h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_expand_digest_matches_committed_hex():
    assert expand_digest() == EXPAND_DIGEST


def chain_digest() -> str:
    """sha256 over the little-endian int64 digit blocks of one seeded
    200-sample `LebesgueDigitChain` for 10^4 steps and then 203 more (a
    chunk that does not split into equal lanes), and its clamp count."""
    h = hashlib.sha256()
    chain = LebesgueDigitChain(20261020, 200)
    for steps in (10_000, 203):
        for block in chain.next_digits(steps):
            h.update(block.astype("<i8").tobytes())
    h.update(repr(chain.clamps).encode())
    return h.hexdigest()


def test_chain_digest_matches_committed_hex():
    assert chain_digest() == CHAIN_DIGEST


def spectral_digest() -> str:
    """sha256 over `repr((value, bracket))` of `spectral_dim` for B in
    {2, 3, 5, 8, 16, 32, 64, 128}, alpha in {0, 1/4, 1/2, 3/4} and i in
    {1, 2}; the bytes of `transfer_matrix` at a few (B, s); and `repr` of
    `segment_log_sum` at a few (B, i, free, tail, s)."""
    h = hashlib.sha256()
    for B in (2, 3, 5, 8, 16, 32, 64, 128):
        for alpha in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            for i in (1, 2):
                est = spectral_dim(B, alpha, i)
                h.update(repr((est.value, est.bracket)).encode() + b"\n")
    for B, s in ((1, 0.5), (2, 0.0), (3, 0.25), (7, 0.75), (64, 1.0), (300, 3.5)):
        h.update(transfer.transfer_matrix(B, s).astype("<f8").tobytes())
    for args in (  # (B, i, free, tail, s)
        (2, 1, 0, 3, 0.5),
        (3, 1, 40, 5, 0.6),
        (5, 2, 7, 0, 0.3),
        (16, 3, 200, 12, 0.8),
        (64, 1, 1000, 50, 0.55),
    ):
        h.update(repr(transfer.segment_log_sum(*args)).encode() + b"\n")
    return h.hexdigest()


def test_spectral_digest_matches_committed_hex():
    assert spectral_digest() == SPECTRAL_DIGEST


def tracker_digest() -> str:
    """sha256 over the Monte Carlo trackers' state after one seeded 64-sample
    chain walks 10^4 steps and then 203 more into a `RunMaxTracker` and a
    `RecordTracker` of the digit 1, each snapshotted after both walks: the
    run maxima, every sample's record blocks and both series."""
    chain = LebesgueDigitChain(20261021, 64)
    runs, records = RunMaxTracker(64), RecordTracker(64, 1)
    for steps in (10_000, 203):
        for block in chain.next_digits(steps):
            runs.push(block)
            records.push(block)
        runs.snapshot()
        records.snapshot()
    h = hashlib.sha256()
    h.update(runs.rmax.astype("<i8").tobytes())
    for k in range(64):
        h.update(repr(records.records(k)).encode() + b"\n")
    h.update(repr((runs.series, records.series)).encode())
    return h.hexdigest()


def test_tracker_digest_matches_committed_hex():
    assert tracker_digest() == TRACKER_DIGEST


def cantor_digest() -> str:
    """sha256 over the Cantor layer: the entries of every schedule that
    `construct_sequences` and `construct_sequences_runlength` build over a
    small grid of (nu_hat, nu), nu_hat = 0 included, and (alpha, beta) at
    k_max 1..12, as little-endian bytes (`repr` stops at 4 300 digits);
    `repr((value, bracket, method))` of `predim_tilde` at segments 1..10 of
    (nu_hat, nu, B, i) = (1/3, 1, 3, 1) and (1/4, 1/2, 4, 1), whose segment 3
    enumerates exactly 4^10 = 2^20 leaves, the largest table; and the digits
    that `sample_measure` draws at two seeds, with their
    `local_dimension_series`."""
    h = hashlib.sha256()
    F = Fraction
    grid = [(construct_sequences, a, b) for a, b in ((0, 1), (0, F(1, 2)), (F(1, 3), 1), (F(1, 4), F(1, 2)))]
    grid += [(construct_sequences, F(1, 2), 1)]
    grid += [(construct_sequences_runlength, a, b) for a, b in ((F(1, 3), F(1, 2)), (F(1, 5), F(3, 4)))]
    for build, a, b in grid:
        for k_max in range(1, 13):
            sp = build(a, b, k_max)
            for entry in sp.n + sp.m:
                h.update(entry.to_bytes((entry.bit_length() + 8) // 8, "little") + b"\n")
    for nu_hat, nu, B, i in ((Fraction(1, 3), 1, 3, 1), (Fraction(1, 4), Fraction(1, 2), 4, 1)):
        for m_prev, n_k, m_k in construct_sequences(nu_hat, nu, 10).segments:
            est = predim_tilde(B, i, (m_k - m_prev, m_k - n_k))
            h.update(repr((est.value, est.bracket, est.method)).encode() + b"\n")
    spec = CantorSpec(3, 1, construct_sequences(Fraction(1, 3), 1, 6))
    for seed in (20261020, 20261021):
        digits = sample_measure(spec, spec.sp.m[4], seed).digits
        h.update(repr(digits).encode() + b"\n")
        h.update(repr(local_dimension_series(spec, digits)).encode() + b"\n")
    return h.hexdigest()


def test_cantor_digest_matches_committed_hex():
    assert cantor_digest() == CANTOR_DIGEST
