/**
 * @file
 * Deterministic pseudo-random number generator.
 *
 * All stochastic behaviour in the simulator (synthetic traces, dummy
 * read addresses, ...) draws from explicitly seeded Xoshiro256**
 * instances so that every experiment is exactly reproducible.
 */

#ifndef MEMSEC_UTIL_RANDOM_HH
#define MEMSEC_UTIL_RANDOM_HH

#include <cmath>
#include <cstdint>

namespace memsec {

/**
 * Xoshiro256** PRNG. Small, fast, and good enough statistical quality
 * for workload synthesis; never use std::rand (global state) in the
 * simulator.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed via SplitMix64 expansion. */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(s[1] * 5, 7) * 9;
        const uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound); bound must be nonzero. */
    uint64_t below(uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    uint64_t range(uint64_t lo, uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniform() { return (next() >> 11) * 0x1.0p-53; }

    /** Bernoulli draw with probability p of true. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /** Geometric-ish draw: number of failures before success(p). */
    uint64_t geometric(double p);

    /**
     * geometric(p) for p in (0, 1), given logFail = std::log(1 - p):
     * the same draw and the same value, for callers that draw many
     * times at one p and keep the logarithm.
     */
    uint64_t
    geometricLog(double logFail)
    {
        double u = uniform();
        // Avoid log(0).
        if (u <= 0.0)
            u = 0x1.0p-53;
        return static_cast<uint64_t>(std::log(u) / logFail);
    }

    /** Consume exactly the draws geometric(p) would, computing no
     *  value: one next() unless p >= 1. */
    void
    skipGeometric(double p)
    {
        if (p < 1.0)
            next();
    }

    /** Checkpoint layout (util/serialize.hh): the raw 256-bit
     *  state. */
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &a)
    {
        for (auto &w : self.s)
            a.u64(w);
    }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t s[4];
};

} // namespace memsec

#endif // MEMSEC_UTIL_RANDOM_HH
