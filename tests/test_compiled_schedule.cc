/**
 * @file
 * Unit tests for the compiled-schedule machinery (docs/PERF.md): the
 * mode parser, the timestamp-sorted ReplayRing, and
 * ScheduleVerifier::compile() — the only emitter of slot tables,
 * which must refuse to produce one for a design point it cannot
 * prove.
 */

#include <gtest/gtest.h>

#include <vector>

#include "analysis/schedule_verifier.hh"
#include "core/pipeline_solver.hh"
#include "sim/compiled_schedule.hh"

using namespace memsec;
using analysis::ScheduleVerifier;
using analysis::VerifierConfig;
using core::PartitionLevel;
using core::PeriodicRef;

// ---- CompiledMode ------------------------------------------------

TEST(CompiledMode, ParseRoundTrip)
{
    EXPECT_EQ(parseCompiledMode("off"), CompiledMode::Off);
    EXPECT_EQ(parseCompiledMode("on"), CompiledMode::On);
    EXPECT_EQ(parseCompiledMode("verify"), CompiledMode::Verify);
    EXPECT_STREQ(toString(CompiledMode::Off), "off");
    EXPECT_STREQ(toString(CompiledMode::On), "on");
    EXPECT_STREQ(toString(CompiledMode::Verify), "verify");
}

// ---- ReplayRing --------------------------------------------------

namespace {
struct DummyOp
{
    int tag = 0;
};
} // namespace

TEST(ReplayRing, PopsInTimestampOrder)
{
    DummyOp a{1}, b{2}, c{3};
    ReplayRing<DummyOp> ring(8);
    ring.push({50, kNoCycle, &a, false});
    ring.push({10, kNoCycle, &b, false});
    ring.push({30, 99, &c, true});

    EXPECT_EQ(ring.front().at, 10u);
    EXPECT_EQ(ring.front().op->tag, 2);
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
    DummyOp first{1}, second{2};
    ReplayRing<DummyOp> ring(4);
    ring.push({20, kNoCycle, &first, false});
    ring.push({20, kNoCycle, &second, true});
    EXPECT_EQ(ring.front().op->tag, 1);
    ring.pop();
    EXPECT_EQ(ring.front().op->tag, 2);
}

TEST(ReplayRing, GrowsPastItsReservation)
{
    // The reservation is the schedule's in-flight bound, not a cap:
    // a burst beyond it (injected skew) must keep every event.
    DummyOp op;
    ReplayRing<DummyOp> ring(2);
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
    DummyOp op;
    ReplayRing<DummyOp> ring(8);
    EXPECT_EQ(ring.minCompletion(), kNoCycle);
    ring.push({5, kNoCycle, &op, false});  // ACT
    ring.push({9, kNoCycle, &op, true});   // clientless CAS
    EXPECT_EQ(ring.minCompletion(), kNoCycle);
    ring.push({7, 120, &op, true});
    ring.push({8, 80, &op, true});
    EXPECT_EQ(ring.minCompletion(), 80u);
    EXPECT_EQ(ring.minIssue(), 5u);
    ring.clear();
    EXPECT_EQ(ring.minCompletion(), kNoCycle);
}

// ---- ScheduleVerifier::compile -----------------------------------

namespace {

VerifierConfig
paperConfig(PeriodicRef ref, PartitionLevel level, unsigned domains)
{
    VerifierConfig cfg;
    cfg.ref = ref;
    cfg.level = level;
    cfg.numDomains = domains;
    cfg.numRanks = 8;
    return cfg;
}

} // namespace

TEST(CompileSchedule, EmitsVerifiedTableForRankPartition)
{
    const auto tp = dram::TimingParams::ddr3_1600_4gb();
    const ScheduleVerifier v(
        tp, paperConfig(PeriodicRef::Data, PartitionLevel::Rank, 8));
    const CompiledSchedule table = v.compile(7);

    ASSERT_TRUE(table.valid) << table.note;
    EXPECT_EQ(table.l, 7u);
    EXPECT_EQ(table.slots.size(), 8u);
    EXPECT_GT(table.slotsChecked, 0u);
    EXPECT_GT(table.pairsChecked, 0u);
    EXPECT_FALSE(table.describe().empty());

    for (const CompiledSlot &slot : table.slots) {
        EXPECT_FALSE(slot.phantom);
        // Lead folded in: command order within the slot must hold
        // with every delta relative to the decision cycle.
        EXPECT_LT(slot.actRead, slot.casRead);
        EXPECT_LT(slot.casRead, slot.dataRead);
        EXPECT_LT(slot.actWrite, slot.casWrite);
        EXPECT_LT(slot.casWrite, slot.dataWrite);
        // Completion = data start + burst, the invariant the replay
        // wake hints rely on.
        EXPECT_EQ(slot.completeRead, slot.dataRead + tp.burst);
        EXPECT_EQ(slot.completeWrite, slot.dataWrite + tp.burst);
        EXPECT_EQ(slot.dataRead, slot.casRead + tp.cas);
        EXPECT_EQ(slot.dataWrite, slot.casWrite + tp.cwd);
    }
}

TEST(CompileSchedule, RefusesInfeasibleSlotWidth)
{
    const ScheduleVerifier v(
        dram::TimingParams::ddr3_1600_4gb(),
        paperConfig(PeriodicRef::Data, PartitionLevel::Rank, 8));
    // l = 6 is below the proven minimum of 7; no table may exist.
    const CompiledSchedule table = v.compile(6);
    EXPECT_FALSE(table.valid);
    EXPECT_FALSE(table.note.empty());
}

TEST(CompileSchedule, RefusesRefreshConfigs)
{
    VerifierConfig cfg =
        paperConfig(PeriodicRef::Data, PartitionLevel::Rank, 8);
    cfg.refresh = true;
    const ScheduleVerifier v(dram::TimingParams::ddr3_1600_4gb(), cfg);
    const CompiledSchedule table = v.compile(7);
    EXPECT_FALSE(table.valid)
        << "refresh blackouts are not frame-periodic; a table must "
           "never be emitted";
    EXPECT_FALSE(table.note.empty());
}

TEST(CompileSchedule, TripleAlternationCarriesGroupLanes)
{
    // 6 domains divide evenly by 3 groups, so the frame needs a
    // phantom pad slot — without it the rotation would pin every
    // domain to one group lane forever instead of visiting all three.
    VerifierConfig cfg =
        paperConfig(PeriodicRef::Ras, PartitionLevel::None, 6);
    cfg.bankGroups = 3;
    const ScheduleVerifier v(dram::TimingParams::ddr3_1600_4gb(), cfg);
    const CompiledSchedule table = v.compile(15);
    ASSERT_TRUE(table.valid) << table.note;

    ASSERT_EQ(table.slots.size(), 7u);
    bool sawPhantom = false;
    for (const CompiledSlot &slot : table.slots) {
        sawPhantom = sawPhantom || slot.phantom;
        EXPECT_LT(slot.group, 3u);
    }
    EXPECT_TRUE(sawPhantom);

    // An 8-domain frame already breaks the alignment by itself: no
    // pad, all eight slots real.
    VerifierConfig cfg8 =
        paperConfig(PeriodicRef::Ras, PartitionLevel::None, 8);
    cfg8.bankGroups = 3;
    const ScheduleVerifier v8(dram::TimingParams::ddr3_1600_4gb(), cfg8);
    const CompiledSchedule table8 = v8.compile(15);
    ASSERT_TRUE(table8.valid) << table8.note;
    EXPECT_EQ(table8.slots.size(), 8u);
    for (const CompiledSlot &slot : table8.slots)
        EXPECT_FALSE(slot.phantom);
}
