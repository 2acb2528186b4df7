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
    uint64_t next();

    /** Uniform integer in [0, bound); bound must be nonzero. */
    uint64_t below(uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    uint64_t range(uint64_t lo, uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Bernoulli draw with probability p of true. */
    bool chance(double p);

    /** Geometric-ish draw: number of failures before success(p). */
    uint64_t geometric(double p);

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
    uint64_t s[4];
};

} // namespace memsec

#endif // MEMSEC_UTIL_RANDOM_HH
