#include <gtest/gtest.h>

#include <vector>

#include "core/slot_schedule.hh"

using namespace memsec;
using namespace memsec::core;

namespace {

const dram::TimingParams tp = dram::TimingParams::ddr3_1600_4gb();

SlotSchedule
rankSchedule()
{
    PipelineSolver solver(tp);
    return SlotSchedule(solver.solveBest(PartitionLevel::Rank), 8, tp);
}

} // namespace

TEST(SlotSchedule, LeadCoversEarliestCommand)
{
    const SlotSchedule s = rankSchedule();
    // Fixed periodic data: the read ACT leads the burst by 22 cycles.
    EXPECT_EQ(s.lead(), 22u);
    EXPECT_EQ(s.frameLength(), 56u); // Q = 7 * 8
}

TEST(SlotSchedule, RoundRobinDomains)
{
    const SlotSchedule s = rankSchedule();
    for (uint64_t slot = 0; slot < 32; ++slot)
        EXPECT_EQ(s.domainOf(slot), slot % 8);
}

TEST(SlotSchedule, PlanMatchesFigureOne)
{
    const SlotSchedule s = rankSchedule();
    const SlotPlan read = s.plan(0, false);
    // Slot 0 reference (data) at lead; commands never before cycle 0.
    EXPECT_EQ(read.dataStart, 22u);
    EXPECT_EQ(read.actAt, 0u);
    EXPECT_EQ(read.casAt, 11u);
    EXPECT_EQ(read.dataEnd, 26u);

    const SlotPlan write = s.plan(1, true);
    EXPECT_EQ(write.dataStart, 29u);
    EXPECT_EQ(write.actAt, 13u);
    EXPECT_EQ(write.casAt, 24u);
}

TEST(SlotSchedule, ConsecutiveDataSlotsSevenApart)
{
    const SlotSchedule s = rankSchedule();
    for (uint64_t slot = 0; slot < 16; ++slot) {
        EXPECT_EQ(s.plan(slot + 1, false).dataStart -
                      s.plan(slot, false).dataStart,
                  7u);
    }
}

// Invariants the replay pipeline leans on, for every design point.
TEST(SlotSchedule, CommandOrderAndDataOffsetsHoldForEveryPoint)
{
    const PipelineSolver solver(tp);
    for (PartitionLevel level :
         {PartitionLevel::Rank, PartitionLevel::Bank,
          PartitionLevel::None}) {
        for (PeriodicRef ref :
             {PeriodicRef::Data, PeriodicRef::Ras, PeriodicRef::Cas}) {
            const PipelineSolution sol = solver.solve(ref, level);
            ASSERT_TRUE(sol.feasible);
            const SlotSchedule s(sol, 8, tp);
            for (uint64_t slot = 0; slot < 16; ++slot) {
                for (bool write : {false, true}) {
                    const SlotPlan p = s.plan(slot, write);
                    // The device reports data at CAS + CL/CWL; a
                    // template that disagreed would mispredict
                    // every completion.
                    EXPECT_EQ(p.dataStart,
                              p.casAt + (write ? tp.cwd : tp.cas));
                    EXPECT_EQ(p.dataEnd, p.dataStart + tp.burst);
                    EXPECT_LT(p.actAt, p.casAt);
                    EXPECT_LT(p.casAt, p.dataStart);
                    // The lead keeps every command at or after the
                    // slot's decision cycle s * l.
                    EXPECT_GE(p.actAt, slot * sol.l);
                    EXPECT_EQ(p.refCycle, slot * sol.l + s.lead());
                }
            }
        }
    }
}

TEST(SlotSchedule, SlaWeightsInterleaveRoundRobin)
{
    const PipelineSolution sol =
        PipelineSolver(tp).solveBest(PartitionLevel::Rank);
    const SlotSchedule s(sol.offsets, sol.l, tp, {3, 1, 2});
    const std::vector<DomainId> frame = {0, 1, 2, 0, 2, 0};
    ASSERT_EQ(s.slotsPerFrame(), frame.size());
    EXPECT_EQ(s.frameLength(), frame.size() * sol.l);
    for (uint64_t slot = 0; slot < 3 * frame.size(); ++slot) {
        EXPECT_EQ(s.domainOf(slot), frame[slot % frame.size()]) << slot;
        EXPECT_FALSE(s.phantom(slot));
        EXPECT_EQ(s.groupOf(slot), 0u);
    }
}

TEST(SlotSchedule, PhantomPadKeepsGroupRotation)
{
    // Six domains divide evenly by three lanes, so the frame needs a
    // phantom pad slot: without it each domain would be pinned to one
    // group lane forever instead of visiting all three.
    const PipelineSolver solver(tp);
    const PipelineSolution sol =
        solver.solve(PeriodicRef::Ras, PartitionLevel::Bank);
    const unsigned groups = solver.alternationFactor();
    ASSERT_EQ(groups, 3u);
    const SlotSchedule six(sol.offsets, sol.l, tp,
                           std::vector<unsigned>(6, 1), groups);
    ASSERT_EQ(six.slotsPerFrame(), 7u);
    for (uint64_t slot = 0; slot < 6; ++slot)
        EXPECT_EQ(six.domainOf(slot), slot);
    EXPECT_TRUE(six.phantom(6));
    EXPECT_TRUE(six.phantom(13));
    for (DomainId d = 0; d < 6; ++d) {
        std::vector<bool> lanes(groups, false);
        for (uint64_t slot = d; slot < 7 * groups; slot += 7)
            lanes[six.groupOf(slot)] = true;
        for (unsigned g = 0; g < groups; ++g)
            EXPECT_TRUE(lanes[g]) << "domain " << d << " lane " << g;
    }

    // An 8-slot frame already breaks the alignment: no pad.
    const SlotSchedule eight(sol.offsets, sol.l, tp,
                             std::vector<unsigned>(8, 1), groups);
    EXPECT_EQ(eight.slotsPerFrame(), 8u);
    for (uint64_t slot = 0; slot < 8; ++slot) {
        EXPECT_FALSE(eight.phantom(slot));
        EXPECT_EQ(eight.groupOf(slot), slot % groups);
    }
}

TEST(SlotSchedule, WithSpacingKeepsTheFrame)
{
    const SlotSchedule s = rankSchedule();
    const SlotSchedule wide = s.withSpacing(12);
    EXPECT_EQ(wide.spacing(), 12u);
    EXPECT_EQ(wide.lead(), s.lead());
    EXPECT_EQ(wide.slotsPerFrame(), s.slotsPerFrame());
    EXPECT_EQ(wide.plan(3, true).actAt - s.plan(3, true).actAt,
              3u * (12 - 7));
}

TEST(SlotSchedule, InfeasibleSolutionFatal)
{
    PipelineSolution bad;
    bad.feasible = false;
    EXPECT_EXIT(SlotSchedule(bad, 8, tp),
                ::testing::ExitedWithCode(1), "infeasible");
}
