"""Seeded random data: the draw sequence of ``random_values``."""

import random
import struct

from dyncross.sampling import random_values


def reference_values(rng, count):
    """The values as ``choice`` and ``uniform`` draw them."""
    return [complex(rng.choice((-1, 1)) * rng.uniform(0.5, 1.5),
                    rng.choice((-1, 1)) * rng.uniform(0.5, 1.5)) for _ in range(count)]


def bits(values):
    return [struct.pack("<dd", z.real, z.imag) for z in values]


def test_random_values_follow_choice_and_uniform():
    """Every value, bit for bit, and the generator state after the draws
    are those of ``choice((-1, 1)) * uniform(0.5, 1.5)`` per part, for
    240 seeds and every count 0-40."""
    for seed in range(240):
        count = seed % 41
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        got = random_values(got_rng, count)
        assert bits(got) == bits(reference_values(want_rng, count)), (seed, count)
        assert got_rng.getstate() == want_rng.getstate(), (seed, count)


def test_random_values_interleave_with_other_draws():
    """Draws around ``random_values`` read the same stream as around the
    reference, so a caller's later draws do not move."""
    got_rng, want_rng = random.Random(7), random.Random(7)
    for count in (3, 0, 5, 1):
        assert got_rng.random() == want_rng.random()
        assert bits(random_values(got_rng, count)) == bits(reference_values(want_rng, count))
        assert got_rng.sample(range(10), 3) == want_rng.sample(range(10), 3)
    assert got_rng.getstate() == want_rng.getstate()
