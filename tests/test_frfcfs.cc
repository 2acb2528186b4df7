#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mem/memory_controller.hh"
#include "sched/frfcfs.hh"
#include "util/random.hh"

using namespace memsec;
using namespace memsec::mem;
using namespace memsec::sched;

namespace {

class FrFcfsTest : public ::testing::Test, public MemClient
{
  protected:
    FrFcfsTest()
        : map(dram::Geometry{}, Partition::None, Interleave::OpenPage, 2)
    {
        MemoryController::Params p;
        p.numDomains = 2;
        p.queueCapacity = 16;
        mc = std::make_unique<MemoryController>("mc", p, map);
        auto sched = std::make_unique<FrFcfsScheduler>(*mc);
        schedPtr = sched.get();
        mc->setScheduler(std::move(sched));
    }

    void memResponse(const MemRequest &req) override
    {
        done.push_back({req.id, req.completed});
    }

    void
    inject(DomainId d, ReqType t, Addr a, Cycle now, ReqId id)
    {
        auto r = std::make_unique<MemRequest>();
        r->id = id;
        r->domain = d;
        r->type = t;
        r->addr = a;
        r->client = this;
        mc->access(std::move(r), now);
    }

    void
    runTo(Cycle end)
    {
        for (; now < end; ++now)
            mc->tick(now);
    }

    AddressMap map;
    std::unique_ptr<MemoryController> mc;
    FrFcfsScheduler *schedPtr = nullptr;
    std::vector<std::pair<ReqId, Cycle>> done;
    Cycle now = 0;
};

} // namespace

TEST_F(FrFcfsTest, SingleReadMinimalLatency)
{
    inject(0, ReqType::Read, 0x1000, 0, 1);
    runTo(100);
    ASSERT_EQ(done.size(), 1u);
    const auto &tp = mc->dram().timing();
    // ACT at 0, CAS at tRCD, data ends tCAS + tBURST later.
    EXPECT_EQ(done[0].second, tp.rcd + tp.cas + tp.burst);
}

TEST_F(FrFcfsTest, RowHitServedBeforeOlderMiss)
{
    // Two same-row reads and one conflicting-row read, same bank.
    inject(0, ReqType::Read, 0, 0, 1);
    runTo(12); // ACT for req 1 issued, row open
    // Same row (consecutive line) vs different row of the same bank.
    inject(0, ReqType::Read, 64, 12, 2);
    runTo(60);
    EXPECT_EQ(schedPtr->engine().rowHits(), 1u);
}

TEST_F(FrFcfsTest, OpenPageKeepsRowForHits)
{
    inject(0, ReqType::Read, 0, 0, 1);
    inject(0, ReqType::Read, 64, 0, 2);
    inject(0, ReqType::Read, 128, 0, 3);
    runTo(120);
    ASSERT_EQ(done.size(), 3u);
    // One activate serves all three CASes.
    EXPECT_EQ(mc->dram().rank(0).energy().activates, 1u);
}

TEST_F(FrFcfsTest, WritesDrainWhenNoReads)
{
    inject(0, ReqType::Write, 0x2000, 0, 1);
    runTo(100);
    EXPECT_EQ(mc->queue(0).size(), 0u);
    EXPECT_EQ(mc->stats().realBursts.value(), 1u);
}

TEST_F(FrFcfsTest, ReadsPrioritisedOverFewWrites)
{
    for (int i = 0; i < 4; ++i)
        inject(0, ReqType::Write, 0x40000 + i * 8192ull, 0, 10 + i);
    inject(1, ReqType::Read, 0x1000, 0, 1);
    runTo(60);
    // The read completed although the writes arrived first.
    ASSERT_FALSE(done.empty());
    EXPECT_EQ(done[0].first, 1u);
}

TEST_F(FrFcfsTest, ConflictingRowGetsPrecharged)
{
    inject(0, ReqType::Read, 0, 0, 1);
    runTo(30);
    // Different row, same bank: with open-page interleave a bank's
    // row spans colsPerRow lines and banks stripe above that, so the
    // same bank recurs every colsPerRow * nslots lines.
    const Addr sameBankNextRow = 128ull * 64 * 64;
    inject(0, ReqType::Read, sameBankNextRow, 30, 2);
    runTo(150);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_GE(schedPtr->engine().rowConflicts(), 1u);
}

TEST_F(FrFcfsTest, AllRequestsEventuallyComplete)
{
    for (int i = 0; i < 16; ++i) {
        inject(i % 2, i % 3 == 0 ? ReqType::Write : ReqType::Read,
               0x1000 + i * 4096ull, 0, 100 + i);
    }
    runTo(2000);
    // Every request (reads and writes) responds to its client.
    EXPECT_EQ(done.size(), 16u);
    EXPECT_EQ(mc->queue(0).size(), 0u);
    EXPECT_EQ(mc->queue(1).size(), 0u);
}

TEST_F(FrFcfsTest, StatsGroupHasRowCounters)
{
    StatGroup g;
    schedPtr->registerStats(g);
    EXPECT_GE(g.lookup("row_hits"), 0.0);
    EXPECT_GE(g.lookup("row_conflicts"), 0.0);
}

namespace {

/**
 * The baseline's decision logic as it stood before the scan became
 * allocation-free: the refresh state machine, then one FR-FCFS pass
 * that builds a Command and asks DramSystem::canIssue() for every
 * queue entry (via TransactionQueue::at), collecting the open rows
 * with pending hits into a fresh vector each tick. predict() returns
 * what the scheduler should issue at `now` without issuing it.
 */
class ReferenceFrFcfs
{
  public:
    ReferenceFrFcfs(const MemoryController &mc, bool refresh)
        : mc_(mc), dram_(mc.dram()), refresh_(refresh)
    {
        const auto &tp = dram_.timing();
        for (unsigned r = 0; r < dram_.numRanks(); ++r)
            nextRefresh_.push_back(tp.refi * (r + 1) / dram_.numRanks());
    }

    std::optional<dram::Command>
    predict(Cycle now)
    {
        using dram::CmdType;
        using dram::Command;
        unsigned avoidRank = ~0u;
        if (refresh_) {
            for (unsigned r = 0; r < dram_.numRanks(); ++r) {
                if (now < nextRefresh_[r])
                    continue;
                Command ref{CmdType::Ref, r, 0, 0, 0, false};
                if (dram_.canIssue(ref, now)) {
                    nextRefresh_[r] += dram_.timing().refi;
                    ++refreshes;
                    return ref;
                }
                avoidRank = r;
                for (unsigned b = 0; b < dram_.rank(r).numBanks(); ++b) {
                    const dram::Bank &bk = dram_.rank(r).bank(b);
                    if (!bk.isOpen())
                        continue;
                    Command pre{CmdType::Pre, r, b, bk.openRow(), 0, false};
                    if (dram_.canIssue(pre, now))
                        return pre;
                }
                break;
            }
        }

        size_t writes = 0;
        size_t reads = 0;
        for (DomainId d = 0; d < mc_.numDomains(); ++d) {
            writes += mc_.queue(d).writeCount();
            reads += mc_.queue(d).readCount();
        }
        const bool was = draining_;
        if (draining_) {
            if (writes <= 8)
                draining_ = false;
        } else if (writes >= 24 || (reads == 0 && writes > 0)) {
            draining_ = true;
        }
        drainFlips += draining_ != was;

        const MemRequest *casCand = nullptr;
        const MemRequest *actCand = nullptr;
        const MemRequest *preCand = nullptr;
        std::vector<std::pair<unsigned, unsigned>> usefulRows;
        auto older = [](const MemRequest *a, const MemRequest *b) {
            return !b || a->arrival < b->arrival ||
                   (a->arrival == b->arrival && a->id < b->id);
        };
        const unsigned affineRank = dram_.buses().lastDataRank();
        auto betterCas = [&](const MemRequest *a, const MemRequest *b) {
            if (!b)
                return true;
            const bool aAff = a->loc.rank == affineRank;
            const bool bAff = b->loc.rank == affineRank;
            if (aAff != bAff)
                return aAff;
            return older(a, b);
        };
        for (DomainId d = 0; d < mc_.numDomains(); ++d) {
            const TransactionQueue &q = mc_.queue(d);
            for (size_t i = 0; i < q.size(); ++i) {
                const MemRequest *r = q.at(i);
                const bool isWrite = r->type == ReqType::Write;
                if (isWrite != draining_ || r->loc.rank == avoidRank)
                    continue;
                const dram::Bank &bk =
                    dram_.rank(r->loc.rank).bank(r->loc.bank);
                if (bk.isOpen() && bk.openRow() == r->loc.row) {
                    usefulRows.emplace_back(r->loc.rank, r->loc.bank);
                    Command cas{isWrite ? CmdType::Wr : CmdType::Rd,
                                r->loc.rank, r->loc.bank, r->loc.row,
                                r->id, false};
                    if (dram_.canIssue(cas, now) && betterCas(r, casCand))
                        casCand = r;
                } else if (!bk.isOpen()) {
                    Command act{CmdType::Act, r->loc.rank, r->loc.bank,
                                r->loc.row, r->id, false};
                    if (dram_.canIssue(act, now) && older(r, actCand))
                        actCand = r;
                } else {
                    Command pre{CmdType::Pre, r->loc.rank, r->loc.bank,
                                bk.openRow(), r->id, false};
                    if (dram_.canIssue(pre, now) && older(r, preCand))
                        preCand = r;
                }
            }
        }
        if (casCand) {
            return Command{casCand->type == ReqType::Write ? CmdType::Wr
                                                           : CmdType::Rd,
                           casCand->loc.rank, casCand->loc.bank,
                           casCand->loc.row, casCand->id, false};
        }
        if (actCand) {
            return Command{CmdType::Act, actCand->loc.rank,
                           actCand->loc.bank, actCand->loc.row,
                           actCand->id, false};
        }
        if (preCand) {
            const auto key =
                std::make_pair(preCand->loc.rank, preCand->loc.bank);
            if (std::find(usefulRows.begin(), usefulRows.end(), key) ==
                usefulRows.end()) {
                const dram::Bank &bk =
                    dram_.rank(preCand->loc.rank).bank(preCand->loc.bank);
                return Command{CmdType::Pre, preCand->loc.rank,
                               preCand->loc.bank, bk.openRow(),
                               preCand->id, false};
            }
        }
        return std::nullopt;
    }

    uint64_t refreshes = 0;
    uint64_t drainFlips = 0;

  private:
    const MemoryController &mc_;
    const dram::DramSystem &dram_;
    bool refresh_ = false;
    bool draining_ = false;
    std::vector<Cycle> nextRefresh_;
};

} // namespace

// Seeded differential: random reads and writes over every rank and
// bank of four domains, in phases that push the write backlog across
// both drain watermarks, with refresh on. On every cycle the
// scheduler must issue exactly the command the reference scan picks.
TEST(FrFcfsDifferential, IssuesTheReferencePickEveryCycle)
{
    for (const uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        AddressMap map(dram::Geometry{}, Partition::None,
                       Interleave::OpenPage, 4);
        MemoryController::Params p;
        p.numDomains = 4;
        p.queueCapacity = 16;
        MemoryController mc("mc", p, map);
        mc.setScheduler(
            std::make_unique<FrFcfsScheduler>(mc, false, true));
        ReferenceFrFcfs ref(mc, true);
        const dram::DramSystem &dram = mc.dram();
        const dram::Geometry &geo = map.geometry();
        const uint64_t slots =
            static_cast<uint64_t>(geo.ranksPerChannel) * geo.banksPerRank;

        Rng rng(seed);
        ReqId nextId = 1;
        uint64_t issued = 0;
        for (Cycle now = 0; now < 30000; ++now) {
            // 1000-cycle phases: two read-heavy, then a write burst.
            const bool writePhase = (now / 1000) % 3 == 2;
            if (rng.chance(0.3)) {
                const auto d = static_cast<DomainId>(rng.below(4));
                const ReqType t = rng.chance(writePhase ? 0.9 : 0.2)
                                      ? ReqType::Write
                                      : ReqType::Read;
                if (mc.canAccept(d, t)) {
                    auto r = std::make_unique<MemRequest>();
                    r->id = nextId++;
                    r->domain = d;
                    r->type = t;
                    // A few rows per bank, so hits, misses and
                    // conflicts all occur, striped over every rank
                    // and bank.
                    const uint64_t row = rng.below(3);
                    const uint64_t slot = rng.below(slots);
                    const uint64_t col = rng.below(geo.colsPerRow);
                    r->addr =
                        ((row * slots + slot) * geo.colsPerRow + col) *
                        kLineBytes;
                    mc.access(std::move(r), now);
                }
            }
            const uint64_t before = dram.commandsIssued();
            const std::optional<dram::Command> want = ref.predict(now);
            mc.tick(now);
            const uint64_t n = dram.commandsIssued() - before;
            ASSERT_EQ(n, want ? 1u : 0u) << "cycle " << now;
            if (!want)
                continue;
            ++issued;
            ASSERT_EQ(dram.commandLog().newest().toString(),
                      want->toString())
                << "cycle " << now;
        }
        // Non-vacuous: real traffic, both drain transitions, and a
        // few refreshes of every rank.
        EXPECT_GT(issued, 5000u);
        EXPECT_GE(ref.drainFlips, 4u);
        EXPECT_GE(ref.refreshes, 8u * 3);
    }
}
