#include <gtest/gtest.h>

#include <stdexcept>

#include "util/random.hh"

using namespace memsec;

TEST(Random, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++equal;
    }
    EXPECT_LT(equal, 3);
}

TEST(Random, BelowStaysInRange)
{
    Rng r(7);
    for (uint64_t bound : {1ull, 2ull, 10ull, 1000000007ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(r.below(bound), bound);
    }
}

TEST(Random, BelowZeroPanics)
{
    Rng r(7);
    EXPECT_THROW(r.below(0), std::logic_error);
}

TEST(Random, RangeInclusive)
{
    Rng r(9);
    bool sawLo = false;
    bool sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        const uint64_t v = r.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        sawLo |= v == 3;
        sawHi |= v == 6;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Random, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0.0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Random, ChanceExtremes)
{
    Rng r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Random, ChanceFrequency)
{
    Rng r(17);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Random, GeometricMean)
{
    Rng r(19);
    const double p = 0.25;
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(r.geometric(p));
    // Mean of geometric (failures before success) is (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Random, GeometricPOneIsZero)
{
    Rng r(23);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(r.geometric(1.0), 0u);
}

TEST(Random, PinnedStream)
{
    // Literal values for two seeds: every synthetic trace, and with
    // it every golden digest, is a function of this stream, so any
    // change to the generator or its derived draws shows here first.
    struct Pinned
    {
        uint64_t seed;
        uint64_t next[3];
        uint64_t below1000[3];
        uint64_t below64[3];
        double uniform[3];
        bool chance03[4];
        uint64_t geometric025[4];
        uint64_t geometric0001[2];
        uint64_t after;
    };
    const Pinned pins[] = {
        {1,
         {0xb3f2af6d0fc710c5ull, 0x853b559647364ceaull,
          0x92f89756082a4514ull},
         {383, 371, 162},
         {38, 29, 33},
         {0x1.1a79b718754b6p-1, 0x1.dd7a2297b0e44p-1,
          0x1.ea187fe3cfafdp-1},
         {false, false, false, false},
         {8, 2, 10, 9},
         {769, 699},
         0x9c5cdfccab6854c1ull},
        {0x5EED,
         {0xef33f17055244b74ull, 0xe1f591112fb5051bull,
          0xd8ab05640214863aull},
         {683, 736, 6},
         {44, 22, 60},
         {0x1.77935b62bcceep-1, 0x1.65e575f2c3848p-3,
          0x1.595db7d2285c5p-1},
         {false, false, false, true},
         {2, 2, 4, 0},
         {949, 793},
         0x03402cf1746993bcull},
    };
    for (const Pinned &p : pins) {
        SCOPED_TRACE(p.seed);
        Rng r(p.seed);
        for (uint64_t v : p.next)
            EXPECT_EQ(r.next(), v);
        for (uint64_t v : p.below1000)
            EXPECT_EQ(r.below(1000), v);
        for (uint64_t v : p.below64)
            EXPECT_EQ(r.below(64), v);
        for (double v : p.uniform)
            EXPECT_EQ(r.uniform(), v);
        for (bool v : p.chance03)
            EXPECT_EQ(r.chance(0.3), v);
        for (uint64_t v : p.geometric025)
            EXPECT_EQ(r.geometric(0.25), v);
        for (uint64_t v : p.geometric0001)
            EXPECT_EQ(r.geometric(0.001), v);
        EXPECT_EQ(r.next(), p.after);
    }
}
