/**
 * @file
 * Zero-allocation guard for the audited FR-FCFS path (docs/PERF.md:
 * a check that passes formats no string and allocates nothing) and
 * for the functional LLC warmup and timed trace generation.
 *
 * This binary replaces the global operator new with a counting one,
 * so it must stay a binary of its own; tests/CMakeLists.txt leaves it
 * out of sanitizer builds, whose runtimes replace the allocator.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>

#include "cache/cache.hh"
#include "cpu/trace.hh"
#include "cpu/workload.hh"
#include "dram/timing_checker.hh"
#include "mem/memory_controller.hh"
#include "sched/frfcfs.hh"

namespace {

bool gCounting = false;
uint64_t gAllocs = 0;

void *
countedAlloc(std::size_t n)
{
    if (gCounting)
        ++gAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

/** Heap allocations made while `fn` runs. */
template <typename Fn>
uint64_t
allocationsDuring(Fn &&fn)
{
    gAllocs = 0;
    gCounting = true;
    fn();
    gCounting = false;
    return gAllocs;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

using namespace memsec;
using namespace memsec::dram;

TEST(HotPathAlloc, CounterSeesAllocations)
{
    // The guard is only meaningful if the replacement is live.
    const uint64_t n =
        allocationsDuring([] { auto p = std::make_unique<int>(1); });
    EXPECT_EQ(n, 1u);
}

TEST(HotPathAlloc, PassingCheckerObservationsAllocateNothing)
{
    const TimingParams tp = TimingParams::ddr3_1600_4gb();
    TimingChecker ck(tp, 8, 8);
    ck.expectRefresh(tp.refi);

    // Per round, one rank gets ACT, RD, WR, PRE and REF; ranks and
    // banks rotate, and each rank is revisited after its tRFC.
    Cycle t = 0;
    unsigned i = 0;
    bool allLegal = true;
    auto round = [&] {
        const unsigned r = i % 8;
        const unsigned b = (i / 8) % 8;
        const unsigned row = i % 1000;
        allLegal &= ck.observe({CmdType::Act, r, b, row, 0, false}, t);
        allLegal &= ck.observe({CmdType::Rd, r, b, row, 0, false}, t + 11);
        allLegal &= ck.observe({CmdType::Wr, r, b, row, 0, false}, t + 21);
        allLegal &= ck.observe({CmdType::Pre, r, b, 0, 0, false}, t + 45);
        allLegal &= ck.observe({CmdType::Ref, r, 0, 0, 0, false}, t + 60);
        t += 70;
        ++i;
    };
    for (int k = 0; k < 64; ++k)
        round();
    const uint64_t allocs = allocationsDuring([&] {
        for (int k = 0; k < 2000; ++k)
            round();
    });
    EXPECT_TRUE(allLegal);
    EXPECT_EQ(ck.violationCount(), 0u);
    EXPECT_EQ(ck.observed(), 5u * 2064);
    EXPECT_EQ(allocs, 0u);
}

namespace {

class CountingClient : public mem::MemClient
{
  public:
    void memResponse(const mem::MemRequest &) override { ++responses; }
    uint64_t responses = 0;
};

} // namespace

TEST(HotPathAlloc, FrFcfsTicksOnAWarmedQueueAllocateNothing)
{
    using namespace memsec::mem;
    AddressMap map(Geometry{}, Partition::None, Interleave::OpenPage, 4);
    MemoryController::Params p;
    p.numDomains = 4;
    p.queueCapacity = 32;
    MemoryController mc("mc", p, map);
    auto owned = std::make_unique<sched::FrFcfsScheduler>(mc, false, true);
    const sched::FrFcfsScheduler &fr = *owned;
    mc.setScheduler(std::move(owned));
    CountingClient client;
    for (DomainId d = 0; d < 4; ++d)
        mc.registerClient(d, &client);

    // Fill every queue with reads and writes spread over all ranks
    // and banks, a few rows each (hits, misses and conflicts).
    ReqId id = 1;
    auto fill = [&](Cycle now) {
        for (unsigned k = 0; k < 128; ++k) {
            const DomainId d = k % 4;
            const ReqType t = k % 5 == 0 ? ReqType::Write : ReqType::Read;
            if (!mc.canAccept(d, t))
                continue;
            auto r = std::make_unique<MemRequest>();
            r->id = id++;
            r->domain = d;
            r->type = t;
            r->client = &client;
            r->addr = ((k % 3) * 64 + (k * 7) % 64) * 128 * kLineBytes +
                      (k % 16) * kLineBytes;
            mc.access(std::move(r), now);
        }
    };

    // Two identical warm-up rounds size every reusable buffer; the
    // third, which spans rank 1's first refresh, is counted.
    Cycle now = 0;
    auto runRound = [&] {
        for (const Cycle end = now + 600; now < end; ++now)
            mc.tick(now);
    };
    fill(now);
    runRound();
    fill(now);
    runRound();
    fill(now);
    const uint64_t cmdsBefore = mc.dram().commandsIssued();
    const uint64_t responsesBefore = client.responses;
    const uint64_t refreshesBefore = fr.refreshes();
    const uint64_t allocs = allocationsDuring(runRound);

    // Non-vacuous: the window issues ACTs, CASes and PREs, retires
    // reads through the completion heap, and refreshes a rank.
    EXPECT_GT(mc.dram().commandsIssued() - cmdsBefore, 200u);
    EXPECT_GT(client.responses - responsesBefore, 100u);
    EXPECT_GE(fr.refreshes() - refreshesBefore, 1u);
    EXPECT_EQ(allocs, 0u);
}

TEST(HotPathAlloc, FunctionalWarmupAndTimedRecordsAllocateNothing)
{
    // The CoreModel warmup loop: untimed records through a 512 KB
    // 8-way LLC, filling on every miss.
    cpu::SyntheticTraceGenerator gen(cpu::profileByName("mcf"), 1);
    cache::Cache llc(512 * 1024, 8);
    const uint64_t warmupAllocs = allocationsDuring([&] {
        for (int i = 0; i < 400000; ++i) {
            const cpu::TraceRecord tr = gen.nextUntimed();
            llc.warm(tr.addr / kLineBytes * kLineBytes, tr.isStore);
        }
    });
    EXPECT_GT(llc.misses().value(), 10000u);
    EXPECT_EQ(warmupAllocs, 0u);

    // Timed records over phase changes (mcf's mean phase is 1500).
    uint64_t gaps = 0;
    const uint64_t timedAllocs = allocationsDuring([&] {
        for (int i = 0; i < 10000; ++i)
            gaps += gen.next().gap;
    });
    EXPECT_GT(gaps, 0u);
    EXPECT_EQ(timedAllocs, 0u);
}
