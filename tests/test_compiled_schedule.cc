/**
 * @file
 * Unit tests for the compiled-schedule machinery (docs/PERF.md): the
 * mode parser and the timestamp-sorted ReplayRing with the planned-op
 * pipeline every fixed-service policy shares, including the
 * completion asserts every CAS carries in every mode.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "mem/memory_controller.hh"
#include "sched/replay_scheduler.hh"
#include "sim/compiled_schedule.hh"
#include "util/serialize.hh"

using namespace memsec;
using sched::PlannedOp;
using sched::ReplayRing;

// ---- CompiledMode ------------------------------------------------

TEST(CompiledMode, ParsesOffAndOn)
{
    EXPECT_EQ(parseCompiledMode("off"), CompiledMode::Off);
    EXPECT_EQ(parseCompiledMode("on"), CompiledMode::On);
}

TEST(CompiledMode, VerifyIsNoLongerAMode)
{
    // The completion asserts run in every mode, so there is nothing
    // left for a third mode to arm.
    EXPECT_EXIT(parseCompiledMode("verify"), ::testing::ExitedWithCode(1),
                "unknown mode 'verify'");
    EXPECT_EXIT(parseCompiledMode("ON"), ::testing::ExitedWithCode(1),
                "unknown mode 'ON'");
}

// ---- ReplayRing and the shared planned-op pipeline ---------------

TEST(ReplayRing, PopsInTimestampOrder)
{
    PlannedOp a, b, c;
    ReplayRing ring;
    ring.push({50, kNoCycle, &a, false});
    ring.push({10, kNoCycle, &b, false});
    ring.push({30, 99, &c, true});

    EXPECT_EQ(ring.front().at, 10u);
    EXPECT_EQ(ring.front().op, &b);
    ring.pop();
    EXPECT_EQ(ring.front().at, 30u);
    ring.pop();
    EXPECT_EQ(ring.front().at, 50u);
    ring.pop();
    EXPECT_TRUE(ring.empty());
}

TEST(ReplayRing, EqualTimestampsStayFifo)
{
    // Events sharing a cycle must apply in insertion (= decision)
    // order, so the device sees them in the order they were planned.
    PlannedOp first, second;
    ReplayRing ring;
    ring.push({20, kNoCycle, &first, false});
    ring.push({20, kNoCycle, &second, true});
    EXPECT_EQ(ring.front().op, &first);
    ring.pop();
    EXPECT_EQ(ring.front().op, &second);
}

TEST(ReplayRing, KeepsEveryEventOfABurst)
{
    // No capacity: a burst (injected skew delays ops) must keep every
    // event, sorted however it arrives.
    PlannedOp op;
    ReplayRing ring;
    for (Cycle at = 10; at > 0; --at)
        ring.push({at, kNoCycle, &op, false});
    EXPECT_EQ(ring.size(), 10u);
    for (Cycle at = 1; at <= 10; ++at) {
        EXPECT_EQ(ring.front().at, at);
        ring.pop();
    }
}

TEST(ReplayRing, MinCompletionIgnoresActsAndClientless)
{
    PlannedOp op;
    ReplayRing ring;
    EXPECT_EQ(ring.minCompletion(), kNoCycle);
    ring.push({5, kNoCycle, &op, false});  // ACT
    ring.push({9, kNoCycle, &op, true});   // clientless CAS
    EXPECT_EQ(ring.minCompletion(), kNoCycle);
    ring.push({7, 120, &op, true});
    ring.push({8, 80, &op, true});
    EXPECT_EQ(ring.minCompletion(), 80u);
    ring.clear();
    EXPECT_EQ(ring.minCompletion(), kNoCycle);
}

namespace {

/** ReplayScheduler with no decision logic: tests plan ops by hand. */
class PlanOnly final : public sched::ReplayScheduler
{
  public:
    explicit PlanOnly(mem::MemoryController &mc) : ReplayScheduler(mc) {}

    void tick(Cycle now) override { applyUpTo(now); }
    std::string name() const override { return "plan-only"; }
    void saveState(Serializer &s) const override { transferPlan(s); }
    void restoreState(Deserializer &d) override { transferPlan(d); }

    using ReplayScheduler::bankFree;
    using ReplayScheduler::plan;
    using ReplayScheduler::planned;
    using ReplayScheduler::reserveBank;
    using ReplayScheduler::ring;
};

mem::MemoryController::Params
oneDomain()
{
    mem::MemoryController::Params p;
    p.numDomains = 1;
    return p;
}

struct PlanRig
{
    mem::AddressMap map{dram::Geometry{}, mem::Partition::None,
                        mem::Interleave::ClosePage, 1};
    mem::MemoryController mc{"mc", oneDomain(), map};
    const dram::TimingParams &tp = mc.dram().timing();

    /** A clientless dummy read on (rank, bank), ACT at `act`. */
    PlannedOp read(unsigned rank, unsigned bank, Cycle act) const
    {
        PlannedOp op;
        op.req = std::make_unique<mem::MemRequest>();
        op.req->type = mem::ReqType::Dummy;
        op.req->loc.rank = rank;
        op.req->loc.bank = bank;
        op.dummy = true;
        op.actAt = act;
        op.casAt = act + tp.rcd;
        return op;
    }

    /** (cycle, command, rank) of every command the device saw. */
    std::vector<std::tuple<Cycle, std::string, unsigned>> issued() const
    {
        std::vector<std::tuple<Cycle, std::string, unsigned>> out;
        std::istringstream log(mc.dram().commandLog().snapshot());
        std::string line;
        std::getline(log, line); // "last N of M issued command(s):"
        while (std::getline(log, line)) {
            std::istringstream fields(line);
            char at = 0, r = 0;
            Cycle cycle = 0;
            std::string cmd;
            unsigned rank = 0;
            fields >> at >> cycle >> cmd >> r >> rank;
            out.emplace_back(cycle, cmd, rank);
        }
        return out;
    }
};

} // namespace

TEST(ReplayRing, OutOfOrderPlansApplyInTimestampOrder)
{
    // FS-reordered's shape: an op decided later can sit earlier in
    // the interval. The ring must still hand the device every command
    // in timestamp order, and same-cycle commands in plan order.
    PlanRig rig;
    rig.mc.dram().setStrict(false); // the same-cycle pair is illegal
    PlanOnly sched(rig.mc);
    sched.plan(rig.read(0, 0, 100));
    sched.plan(rig.read(1, 0, 40));
    PlannedOp tie = rig.read(2, 0, 100);
    tie.casAt += 10;
    sched.plan(std::move(tie));

    sched.applyUpTo(1000);
    const Cycle rcd = rig.tp.rcd;
    using Row = std::tuple<Cycle, std::string, unsigned>;
    const std::vector<Row> expected = {
        {40, "ACT", 1},        {40 + rcd, "RDA", 1},
        {100, "ACT", 0},       {100, "ACT", 2},
        {100 + rcd, "RDA", 0}, {110 + rcd, "RDA", 2},
    };
    EXPECT_EQ(rig.issued(), expected);
    EXPECT_TRUE(sched.planned().empty()) << "applied ops not retired";
    EXPECT_EQ(sched.compiledCommands(), 6u);
}

TEST(ReplayRing, RestoreReenqueuesOnlyTheCasOfAnActivatedOp)
{
    PlanRig rig;
    PlanOnly before(rig.mc);
    before.plan(rig.read(0, 0, 10));
    before.reserveBank(0, 0, 10, 10 + rig.tp.rcd, false);
    before.applyUpTo(10); // the ACT reaches the device, the CAS waits
    ASSERT_EQ(before.ring().size(), 1u);

    Serializer s;
    before.saveState(s);
    PlanOnly after(rig.mc);
    Deserializer d(s.data());
    after.restoreState(d);
    EXPECT_TRUE(d.atEnd());

    ASSERT_EQ(after.ring().size(), 1u);
    EXPECT_TRUE(after.ring().front().cas);
    EXPECT_EQ(after.ring().front().at, 10 + rig.tp.rcd);
    ASSERT_EQ(after.planned().size(), 1u);
    EXPECT_TRUE(after.planned().front().actIssued);
    EXPECT_FALSE(after.bankFree(0, 0, 10 + rig.tp.rc - 1));

    // Applying the restored plan issues the CAS once and no second ACT.
    after.applyUpTo(100);
    const auto issued = rig.issued();
    ASSERT_EQ(issued.size(), 2u);
    EXPECT_EQ(std::get<1>(issued[0]), "ACT");
    EXPECT_EQ(std::get<1>(issued[1]), "RDA");
    EXPECT_EQ(rig.mc.dram().illegalIssues(), 0u);
}

TEST(ReplayRing, ReserveBankHorizonIsTrcOrAutoPrecharge)
{
    PlanRig rig;
    PlanOnly sched(rig.mc);
    const auto &tp = rig.tp;
    const Cycle act = 100;
    const Cycle cas = act + tp.rcd;

    const Cycle readPre = std::max(cas + tp.rtp + tp.rp, act + tp.rc);
    const Cycle readFree = std::max(act + tp.rc, readPre);
    sched.reserveBank(0, 3, act, cas, false);
    EXPECT_FALSE(sched.bankFree(0, 3, readFree - 1));
    EXPECT_TRUE(sched.bankFree(0, 3, readFree));

    const Cycle writePre = cas + tp.cwd + tp.burst + tp.wr + tp.rp;
    const Cycle writeFree = std::max(act + tp.rc, writePre);
    sched.reserveBank(1, 4, act, cas, true);
    EXPECT_FALSE(sched.bankFree(1, 4, writeFree - 1));
    EXPECT_TRUE(sched.bankFree(1, 4, writeFree));

    // Books are per (rank, bank): neighbours stay free.
    EXPECT_TRUE(sched.bankFree(0, 4, 0));
    EXPECT_TRUE(sched.bankFree(1, 3, 0));
}

TEST(ReplayRing, ReleaseBeforeDataEndPanicsInEveryMode)
{
    // A fixed release (FS-reordered's en-masse read return) may not
    // come before the data it returns. The assert needs no
    // sim.compiled mode: the rig never offers one.
    PlanRig rig;
    PlanOnly sched(rig.mc);
    PlannedOp op = rig.read(0, 0, 10);
    const Cycle dataEnd = op.casAt + rig.tp.cas + rig.tp.burst;
    op.releaseAt = dataEnd - 1;
    sched.plan(std::move(op));
    try {
        sched.applyUpTo(100);
        FAIL() << "a release before the data end was accepted";
    } catch (const std::logic_error &e) {
        EXPECT_NE(std::string(e.what()).find("mispredicted"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ReplayRing, ReleaseAtDataEndCompletes)
{
    PlanRig rig;
    PlanOnly sched(rig.mc);
    PlannedOp op = rig.read(0, 0, 10);
    op.releaseAt = op.casAt + rig.tp.cas + rig.tp.burst;
    sched.plan(std::move(op));
    sched.applyUpTo(100);
    EXPECT_TRUE(sched.planned().empty());
    EXPECT_EQ(sched.compiledCommands(), 2u);
}
