#include <gtest/gtest.h>

#include <string>

#include "cpu/arrival.hh"
#include "cpu/trace.hh"
#include "cpu/trace_file.hh"
#include "cpu/workload.hh"
#include "util/serialize.hh"

using namespace memsec;
using namespace memsec::cpu;

namespace {

WorkloadProfile
simpleProfile()
{
    WorkloadProfile p;
    p.name = "test";
    p.memRatio = 0.25;
    p.storeFraction = 0.4;
    p.footprintLines = 1 << 12;
    p.streamFraction = 0.5;
    p.numStreams = 2;
    p.strideLines = 1;
    p.reuseFraction = 0.0;
    return p;
}

/** FNV-1a-64 folded over the little-endian bytes of `v`. */
uint64_t
fold(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
foldRecord(uint64_t h, const TraceRecord &r)
{
    return fold(fold(fold(h, r.gap), r.isStore), r.addr);
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/** A milc-like profile whose phases flip every few records and
 *  whose footprint and stream count are not powers of two. */
WorkloadProfile
shortPhaseProfile()
{
    WorkloadProfile p = profileByName("milc");
    p.phaseLength = 6;
    p.footprintLines = 300000;
    p.numStreams = 3;
    return p;
}

/** The covert-channel sender keyed on a 16-cycle window. */
WorkloadProfile
keyedSenderProfile()
{
    WorkloadProfile p = profileByName("modsender");
    p.modWindowCycles = 16;
    return p;
}

std::string
stateOf(const TraceGenerator &g)
{
    Serializer s;
    g.saveState(s);
    return s.take();
}

/**
 * Pull `n` records from `timed` with next() and from `untimed` with
 * nextUntimed(), both fed bus cycle 3i before record i: the accesses
 * and then the checkpointed state must agree, and so must the next
 * timed records, gaps included.
 */
void
expectUntimedMatchesTimed(TraceGenerator &timed, TraceGenerator &untimed,
                          int n)
{
    for (int i = 0; i < n; ++i) {
        timed.observeCycle(static_cast<Cycle>(i) * 3);
        untimed.observeCycle(static_cast<Cycle>(i) * 3);
        const TraceRecord a = timed.next();
        const TraceRecord b = untimed.nextUntimed();
        ASSERT_EQ(a.addr, b.addr) << "record " << i;
        ASSERT_EQ(a.isStore, b.isStore) << "record " << i;
    }
    ASSERT_EQ(stateOf(timed), stateOf(untimed));
    for (int i = 0; i < 64; ++i) {
        const TraceRecord a = timed.next();
        const TraceRecord b = untimed.next();
        ASSERT_EQ(a.gap, b.gap) << "continuation " << i;
        ASSERT_EQ(a.addr, b.addr) << "continuation " << i;
        ASSERT_EQ(a.isStore, b.isStore) << "continuation " << i;
        ASSERT_EQ(a.issueAt, b.issueAt) << "continuation " << i;
    }
}

} // namespace

TEST(Trace, DeterministicForSameSeed)
{
    SyntheticTraceGenerator a(simpleProfile(), 7);
    SyntheticTraceGenerator b(simpleProfile(), 7);
    for (int i = 0; i < 500; ++i) {
        const TraceRecord ra = a.next();
        const TraceRecord rb = b.next();
        EXPECT_EQ(ra.gap, rb.gap);
        EXPECT_EQ(ra.isStore, rb.isStore);
        EXPECT_EQ(ra.addr, rb.addr);
    }
}

TEST(Trace, DifferentSeedsDiverge)
{
    SyntheticTraceGenerator a(simpleProfile(), 1);
    SyntheticTraceGenerator b(simpleProfile(), 2);
    int same = 0;
    for (int i = 0; i < 200; ++i) {
        if (a.next().addr == b.next().addr)
            ++same;
    }
    EXPECT_LT(same, 20);
}

TEST(Trace, GapMeanMatchesMemRatio)
{
    SyntheticTraceGenerator g(simpleProfile(), 3);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += g.next().gap;
    // Geometric mean (1-p)/p = 3 for memRatio 0.25.
    EXPECT_NEAR(sum / n, 3.0, 0.2);
}

TEST(Trace, StoreFractionApproximate)
{
    SyntheticTraceGenerator g(simpleProfile(), 5);
    int stores = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        stores += g.next().isStore ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(stores) / n, 0.4, 0.02);
}

TEST(Trace, AddressesWithinFootprint)
{
    const WorkloadProfile p = simpleProfile();
    SyntheticTraceGenerator g(p, 9);
    for (int i = 0; i < 5000; ++i) {
        const Addr a = g.next().addr;
        EXPECT_LT(a / kLineBytes, p.footprintLines);
        EXPECT_EQ(a % kLineBytes, 0u);
    }
}

TEST(Trace, PureStreamIsSequentialPerStream)
{
    WorkloadProfile p = simpleProfile();
    p.streamFraction = 1.0;
    p.numStreams = 1;
    p.reuseFraction = 0.0;
    SyntheticTraceGenerator g(p, 11);
    Addr prev = g.next().addr;
    for (int i = 0; i < 100; ++i) {
        const Addr cur = g.next().addr;
        const Addr expect =
            (prev / kLineBytes + 1) % p.footprintLines * kLineBytes;
        EXPECT_EQ(cur, expect);
        prev = cur;
    }
}

TEST(Trace, ReuseDrawsFromRecentLines)
{
    WorkloadProfile p = simpleProfile();
    p.reuseFraction = 1.0; // always reuse once history exists
    SyntheticTraceGenerator g(p, 13);
    // With reuse == 1 and an all-zero initial history, every address
    // is line 0 forever.
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(g.next().addr, 0u);
}

TEST(Trace, InvalidProfileFatal)
{
    WorkloadProfile p = simpleProfile();
    p.memRatio = 0.0;
    EXPECT_EXIT(SyntheticTraceGenerator(p, 1),
                ::testing::ExitedWithCode(1), "memRatio");
    WorkloadProfile p2 = simpleProfile();
    p2.footprintLines = 0;
    EXPECT_EXIT(SyntheticTraceGenerator(p2, 1),
                ::testing::ExitedWithCode(1), "footprint");
}

TEST(Trace, PinnedRecordStream)
{
    // The first 64 records (and the first 100k) of four generators,
    // seed 11, as FNV-1a-64 over (gap, isStore, addr). The sender
    // observes bus cycle 3i before record i. These streams feed
    // every golden digest; a change here must be deliberate.
    struct Pinned
    {
        WorkloadProfile profile;
        bool keyed;
        TraceRecord first;
        uint64_t hash64;
        uint64_t hash100k;
    };
    const Pinned pins[] = {
        {profileByName("mcf"), false, {11, true, 0x0},
         0x962cee103a58aeadull, 0x07049fec71366f57ull},
        {profileByName("lbm"), false, {33, false, 0x0},
         0x908ca0d61632a657ull, 0x2f0453408f7c9962ull},
        {shortPhaseProfile(), false, {20, true, 0x0},
         0x33d4ea022cff410full, 0xaee388f206573e57ull},
        {keyedSenderProfile(), true, {63, true, 0x3832dc0},
         0xb132233e0bc96ab5ull, 0x3a821f42b9a8ce37ull},
    };
    for (const Pinned &p : pins) {
        SCOPED_TRACE(p.profile.name);
        SyntheticTraceGenerator g(p.profile, 11);
        uint64_t h = kFnvBasis;
        for (int i = 0; i < 100000; ++i) {
            if (p.keyed)
                g.observeCycle(static_cast<Cycle>(i) * 3);
            const TraceRecord r = g.next();
            if (i == 0) {
                EXPECT_EQ(r.gap, p.first.gap);
                EXPECT_EQ(r.isStore, p.first.isStore);
                EXPECT_EQ(r.addr, p.first.addr);
            }
            h = foldRecord(h, r);
            if (i == 63) {
                EXPECT_EQ(h, p.hash64);
            }
        }
        EXPECT_EQ(h, p.hash100k);
    }
}

TEST(Trace, UntimedMatchesTimed)
{
    // nextUntimed() skips the gap's logarithms but must consume its
    // draw, so the functional warmup leaves every generator exactly
    // where next() would have.
    std::vector<WorkloadProfile> profiles;
    for (const std::string &name : allProfileNames())
        profiles.push_back(profileByName(name));
    profiles.push_back(keyedSenderProfile());
    profiles.push_back(shortPhaseProfile());
    for (const WorkloadProfile &p : profiles) {
        SCOPED_TRACE(p.name);
        SyntheticTraceGenerator timed(p, 5);
        SyntheticTraceGenerator untimed(p, 5);
        expectUntimedMatchesTimed(timed, untimed, 20000);
    }

    // Generators that keep the default (nextUntimed() is next()).
    SyntheticTraceGenerator src(profileByName("lbm"), 3);
    std::vector<TraceRecord> records;
    for (int i = 0; i < 300; ++i)
        records.push_back(src.next());
    FileTraceGenerator fileTimed(records);
    FileTraceGenerator fileUntimed(records);
    expectUntimedMatchesTimed(fileTimed, fileUntimed, 1000);

    WorkloadProfile cloud = profileByName("cloud");
    cloud.trafficProcess = "mmpp";
    cloud.trafficClients = 4;
    ArrivalTraceGenerator arrivalTimed(cloud, 9);
    ArrivalTraceGenerator arrivalUntimed(cloud, 9);
    expectUntimedMatchesTimed(arrivalTimed, arrivalUntimed, 20000);
}
