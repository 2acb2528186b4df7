/**
 * @file
 * Every JEDEC rule the auditor enforces, violated once on purpose.
 * Non-strict mode records violations instead of panicking, so each
 * test builds a minimal command sequence that breaks exactly one rule
 * and asserts the auditor names it.
 */

#include <gtest/gtest.h>

#include "dram/timing_checker.hh"

using namespace memsec;
using namespace memsec::dram;

namespace {

const TimingParams tp = TimingParams::ddr3_1600_4gb();

Command
act(unsigned rank, unsigned bank, unsigned row)
{
    return Command{CmdType::Act, rank, bank, row, 0, false};
}

Command
cmd(CmdType t, unsigned rank, unsigned bank, unsigned row = 0)
{
    return Command{t, rank, bank, row, 0, false};
}

class CheckerTest : public ::testing::Test
{
  protected:
    CheckerTest() : ck(tp, 8, 8) { ck.setStrict(false); }

    /** Assert some recorded violation names `rule` (one command can
     *  break several rules at once). */
    void
    expectViolation(const std::string &rule)
    {
        ASSERT_FALSE(ck.violations().empty());
        bool found = false;
        for (const auto &v : ck.violations())
            found |= v.rule == rule;
        EXPECT_TRUE(found) << "no violation of rule " << rule
                           << "; last was "
                           << ck.violations().back().rule;
    }

    TimingChecker ck;
};

} // namespace

TEST_F(CheckerTest, CleanReadSequencePasses)
{
    EXPECT_TRUE(ck.observe(act(0, 0, 5), 0));
    EXPECT_TRUE(ck.observe(cmd(CmdType::Rd, 0, 0, 5), tp.rcd));
    EXPECT_TRUE(ck.violations().empty());
}

TEST_F(CheckerTest, CommandBusDoubleOccupancy)
{
    ck.observe(act(0, 0, 5), 10);
    EXPECT_FALSE(ck.observe(act(1, 0, 5), 10));
    expectViolation("cmd-bus");
}

TEST_F(CheckerTest, TrcViolation)
{
    ck.observe(act(0, 0, 5), 0);
    ck.observe(cmd(CmdType::RdA, 0, 0, 5), tp.rcd);
    // tRC = 39; try to re-activate at 38.
    EXPECT_FALSE(ck.observe(act(0, 0, 6), tp.rc - 1));
    expectViolation("tRC");
}

TEST_F(CheckerTest, RowStateActToOpenBank)
{
    ck.observe(act(0, 0, 5), 0);
    EXPECT_FALSE(ck.observe(act(0, 0, 6), 100));
    expectViolation("row-state");
}

TEST_F(CheckerTest, TrrdViolation)
{
    ck.observe(act(0, 0, 5), 0);
    EXPECT_FALSE(ck.observe(act(0, 1, 5), tp.rrd - 1));
    expectViolation("tRRD");
}

TEST_F(CheckerTest, TfawViolation)
{
    ck.observe(act(0, 0, 1), 0);
    ck.observe(act(0, 1, 1), 5);
    ck.observe(act(0, 2, 1), 10);
    ck.observe(act(0, 3, 1), 15);
    EXPECT_FALSE(ck.observe(act(0, 4, 1), tp.faw - 1));
    expectViolation("tFAW");
}

TEST_F(CheckerTest, TfawExactBoundaryPasses)
{
    ck.observe(act(0, 0, 1), 0);
    ck.observe(act(0, 1, 1), 5);
    ck.observe(act(0, 2, 1), 10);
    ck.observe(act(0, 3, 1), 15);
    EXPECT_TRUE(ck.observe(act(0, 4, 1), tp.faw));
}

TEST_F(CheckerTest, TrcdViolation)
{
    ck.observe(act(0, 0, 5), 0);
    EXPECT_FALSE(ck.observe(cmd(CmdType::Rd, 0, 0, 5), tp.rcd - 1));
    expectViolation("tRCD");
}

TEST_F(CheckerTest, ColumnToClosedBank)
{
    EXPECT_FALSE(ck.observe(cmd(CmdType::Rd, 0, 0, 5), 50));
    expectViolation("row-state");
}

TEST_F(CheckerTest, ColumnToWrongRow)
{
    ck.observe(act(0, 0, 5), 0);
    EXPECT_FALSE(ck.observe(cmd(CmdType::Rd, 0, 0, 6), tp.rcd));
    expectViolation("row-state");
}

TEST_F(CheckerTest, TccdViolation)
{
    ck.observe(act(0, 0, 5), 0);
    ck.observe(cmd(CmdType::Rd, 0, 0, 5), tp.rcd);
    EXPECT_FALSE(
        ck.observe(cmd(CmdType::Rd, 0, 0, 5), tp.rcd + tp.ccd - 1));
    expectViolation("tCCD");
}

TEST_F(CheckerTest, WriteToReadTurnaround)
{
    ck.observe(act(0, 0, 5), 0);
    ck.observe(act(0, 1, 6), tp.rrd);
    ck.observe(cmd(CmdType::Wr, 0, 0, 5), 11);
    // wr2rd = 15: a read at +14 to the same rank must fail.
    EXPECT_FALSE(ck.observe(cmd(CmdType::Rd, 0, 1, 6), 11 + 14));
    expectViolation("tWTR");
}

TEST_F(CheckerTest, ReadToWriteTurnaround)
{
    ck.observe(act(0, 0, 5), 0);
    ck.observe(act(0, 1, 6), tp.rrd);
    ck.observe(cmd(CmdType::Rd, 0, 0, 5), 11);
    // rd2wr = 10: a write at +9 must fail (also a data-bus overlap,
    // but the CAS rule fires first).
    EXPECT_FALSE(ck.observe(cmd(CmdType::Wr, 0, 1, 6), 11 + 9));
    expectViolation("rd2wr");
}

TEST_F(CheckerTest, DataBusOverlapAcrossRanks)
{
    ck.observe(act(0, 0, 5), 0);
    ck.observe(act(1, 0, 6), tp.rrd);
    ck.observe(cmd(CmdType::Rd, 0, 0, 5), 11);
    // Reads to different ranks 2 cycles apart: bursts overlap.
    EXPECT_FALSE(ck.observe(cmd(CmdType::Rd, 1, 0, 6), 13));
    expectViolation("data-bus");
}

TEST_F(CheckerTest, TrtrsViolation)
{
    ck.observe(act(0, 0, 5), 0);
    ck.observe(act(1, 0, 6), tp.rrd);
    ck.observe(cmd(CmdType::Rd, 0, 0, 5), 11);
    // Burst gap of exactly tBURST but no tRTRS margin.
    EXPECT_FALSE(ck.observe(cmd(CmdType::Rd, 1, 0, 6), 11 + tp.burst));
    expectViolation("tRTRS");
}

TEST_F(CheckerTest, SameRankBackToBackBurstsPass)
{
    ck.observe(act(0, 0, 5), 0);
    ck.observe(act(0, 1, 6), tp.rrd);
    ck.observe(cmd(CmdType::Rd, 0, 0, 5), 11);
    // Second bank's CAS must respect its own tRCD (5 + 11 = 16),
    // which also satisfies tCCD; same-rank bursts need no tRTRS.
    EXPECT_TRUE(ck.observe(cmd(CmdType::Rd, 0, 1, 6), 16));
}

TEST_F(CheckerTest, PreBeforeTrasFails)
{
    ck.observe(act(0, 0, 5), 0);
    EXPECT_FALSE(ck.observe(cmd(CmdType::Pre, 0, 0, 5), tp.ras - 1));
    expectViolation("tRAS");
}

TEST_F(CheckerTest, PreBeforeTwrFails)
{
    ck.observe(act(0, 0, 5), 0);
    ck.observe(cmd(CmdType::Wr, 0, 0, 5), tp.rcd);
    const Cycle tooSoon = tp.rcd + tp.cwd + tp.burst + tp.wr - 1;
    EXPECT_FALSE(ck.observe(cmd(CmdType::Pre, 0, 0, 5), tooSoon));
    expectViolation("tWR");
}

TEST_F(CheckerTest, PreBeforeTrtpFails)
{
    ck.observe(act(0, 0, 5), 0);
    ck.observe(cmd(CmdType::Rd, 0, 0, 5), tp.rcd + 20);
    EXPECT_FALSE(ck.observe(cmd(CmdType::Pre, 0, 0, 5),
                            tp.rcd + 20 + tp.rtp - 1));
    expectViolation("tRTP");
}

TEST_F(CheckerTest, ActAfterAutoPrechargeBoundary)
{
    // WRA: ACT-to-ACT = 43. ACT at 42 fails, at 43 passes.
    ck.observe(act(0, 0, 5), 0);
    ck.observe(cmd(CmdType::WrA, 0, 0, 5), tp.rcd);
    EXPECT_FALSE(ck.observe(act(0, 0, 6), 42));
    expectViolation("tRP");
    TimingChecker ck2(tp, 8, 8);
    ck2.setStrict(false);
    ck2.observe(act(0, 0, 5), 0);
    ck2.observe(cmd(CmdType::WrA, 0, 0, 5), tp.rcd);
    EXPECT_TRUE(ck2.observe(act(0, 0, 6), 43));
}

TEST_F(CheckerTest, RefreshDuringOpenRowFails)
{
    ck.observe(act(0, 0, 5), 0);
    EXPECT_FALSE(ck.observe(cmd(CmdType::Ref, 0, 0), 100));
    expectViolation("row-state");
}

TEST_F(CheckerTest, CommandDuringRefreshFails)
{
    ck.observe(cmd(CmdType::Ref, 0, 0), 0);
    EXPECT_FALSE(ck.observe(act(0, 0, 5), tp.rfc - 1));
    expectViolation("tRFC");
}

TEST_F(CheckerTest, CommandToPoweredDownRankFails)
{
    ck.observe(cmd(CmdType::PdEnter, 0, 0), 0);
    EXPECT_FALSE(ck.observe(act(0, 0, 5), 2));
    expectViolation("power-down");
}

TEST_F(CheckerTest, PowerDownExitBeforeTckeFails)
{
    ck.observe(cmd(CmdType::PdEnter, 0, 0), 0);
    EXPECT_FALSE(ck.observe(cmd(CmdType::PdExit, 0, 0), tp.cke - 1));
    expectViolation("tCKE");
}

TEST_F(CheckerTest, CommandBeforeTxpAfterExitFails)
{
    ck.observe(cmd(CmdType::PdEnter, 0, 0), 0);
    EXPECT_TRUE(ck.observe(cmd(CmdType::PdExit, 0, 0), tp.cke));
    EXPECT_FALSE(ck.observe(act(0, 0, 5), tp.cke + tp.xp - 1));
    expectViolation("tXP");
    // A fresh checker accepts the same ACT once tXP has elapsed.
    TimingChecker ok(tp, 8, 8);
    ok.setStrict(false);
    ok.observe(cmd(CmdType::PdEnter, 0, 0), 0);
    ok.observe(cmd(CmdType::PdExit, 0, 0), tp.cke);
    EXPECT_TRUE(ok.observe(act(0, 0, 5), tp.cke + tp.xp));
}

TEST_F(CheckerTest, StrictModePanics)
{
    TimingChecker strict(tp, 8, 8);
    strict.observe(act(0, 0, 5), 0);
    EXPECT_THROW(strict.observe(act(0, 0, 6), 100), std::logic_error);
}

TEST_F(CheckerTest, ObservedCountIncrements)
{
    ck.observe(act(0, 0, 5), 0);
    ck.observe(cmd(CmdType::Rd, 0, 0, 5), tp.rcd);
    EXPECT_EQ(ck.observed(), 2u);
}

namespace {

struct Step
{
    Command cmd;
    Cycle t;
};

struct Expected
{
    Cycle cycle;
    const char *rule;
    const char *detail;
};

/** Feed `steps` to a fresh non-strict checker and compare every
 *  recorded violation, in order, against `want` verbatim. */
void
expectExactViolations(const std::vector<Step> &steps,
                      const std::vector<Expected> &want,
                      uint64_t refi = 0)
{
    TimingChecker c(tp, 8, 8);
    c.setStrict(false);
    if (refi > 0)
        c.expectRefresh(refi);
    for (const Step &s : steps)
        c.observe(s.cmd, s.t);
    const auto &got = c.violations();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].cycle, want[i].cycle) << "violation " << i;
        EXPECT_EQ(got[i].rule, want[i].rule) << "violation " << i;
        EXPECT_EQ(got[i].detail, want[i].detail) << "violation " << i;
    }
}

} // namespace

// The detail text of every message the checker can emit, pinned
// byte-for-byte (fault-campaign output and RunReports quote it). The
// numbers are the DDR3-1600 parameters: tRC 39, tRCD 11, tRAS 28,
// tRP 11, tRRD 5, tFAW 24, CL 11, CWL 5, burst 4, tWR 12, tRFC 208.
// same-bank-reuse (ActToActRdA/WrA) is a verifier-only pair rule.
TEST(CheckerDetailText, CommandBus)
{
    expectExactViolations(
        {{act(0, 0, 5), 10}, {act(1, 0, 5), 10}},
        {{10, "cmd-bus", "command at cycle 10 but bus last used at 10"}});
}

TEST(CheckerDetailText, RefreshWindow)
{
    expectExactViolations(
        {{cmd(CmdType::Ref, 0, 0), 0}, {act(0, 0, 5), 100}},
        {{100, "tRFC", "command to rank during refresh"}});
    expectExactViolations(
        {{cmd(CmdType::Ref, 0, 0), 0}, {cmd(CmdType::Ref, 0, 0), 100}},
        {{100, "tRFC", "REF during REF"}});
}

TEST(CheckerDetailText, PowerDownRank)
{
    expectExactViolations(
        {{cmd(CmdType::PdEnter, 0, 0), 0}, {act(0, 0, 5), 2}},
        {{2, "power-down", "ACT to powered-down rank"}});
    expectExactViolations(
        {{cmd(CmdType::PdEnter, 0, 0), 0},
         {cmd(CmdType::PdEnter, 0, 0), 5}},
        {{5, "power-down", "PDE to powered-down rank"},
         {5, "power-down", "PDE while powered down"}});
    expectExactViolations(
        {{cmd(CmdType::Ref, 0, 0), 0}, {cmd(CmdType::PdEnter, 0, 0), 10}},
        {{10, "tRFC", "command to rank during refresh"},
         {10, "power-down", "PDE during refresh"}});
    expectExactViolations(
        {{act(0, 1, 5), 0}, {cmd(CmdType::PdEnter, 0, 0), 50}},
        {{50, "power-down", "precharge power-down with open row"}});
    expectExactViolations(
        {{cmd(CmdType::PdExit, 0, 0), 10}},
        {{10, "power-down", "PDX while not powered down"}});
}

TEST(CheckerDetailText, PowerDownTiming)
{
    expectExactViolations(
        {{cmd(CmdType::PdEnter, 0, 0), 0}, {cmd(CmdType::PdExit, 0, 0), 3}},
        {{3, "tCKE", "PDX before minimum power-down residency"}});
    expectExactViolations(
        {{cmd(CmdType::PdEnter, 0, 0), 0},
         {cmd(CmdType::PdExit, 0, 0), 4},
         {act(0, 0, 5), 13}},
        {{13, "tXP", "command before power-down exit latency elapsed"}});
}

TEST(CheckerDetailText, RetentionLapse)
{
    expectExactViolations(
        {{cmd(CmdType::Ref, 1, 0), 50}, {act(1, 0, 5), 300}},
        {{300, "refresh",
          "rank 1 not refreshed since cycle 50 (2x tREFI elapsed)"}},
        100);
}

TEST(CheckerDetailText, Activate)
{
    expectExactViolations(
        {{act(0, 0, 5), 0}, {act(0, 0, 6), 100}},
        {{100, "row-state", "ACT to bank with open row"}});
    expectExactViolations(
        {{act(0, 0, 5), 0}, {cmd(CmdType::Pre, 0, 0), 28}, {act(0, 0, 6), 38}},
        {{38, "tRC", "ACT-to-ACT gap 38 < tRC"},
         {38, "tRP", "ACT 38 before precharge completes at 39"}});
    expectExactViolations(
        {{act(0, 0, 5), 0}, {act(0, 1, 5), 3}},
        {{3, "tRRD", "rank ACT-to-ACT gap 3 < tRRD"}});
    expectExactViolations(
        {{act(0, 0, 5), 0},
         {act(0, 1, 5), 5},
         {act(0, 2, 5), 10},
         {act(0, 3, 5), 15},
         {act(0, 4, 5), 20}},
        {{20, "tFAW", "fifth ACT within tFAW window (20 < 24)"}});
}

TEST(CheckerDetailText, ColumnRowState)
{
    expectExactViolations(
        {{cmd(CmdType::Rd, 0, 0, 5), 0}},
        {{0, "row-state", "column command to closed bank"},
         {0, "row-state",
          "column command to row 5 but open row is 4294967295"}});
    expectExactViolations(
        {{act(0, 0, 5), 0}, {cmd(CmdType::Rd, 0, 0, 6), 11}},
        {{11, "row-state", "column command to row 6 but open row is 5"}});
    expectExactViolations(
        {{act(0, 0, 5), 0}, {cmd(CmdType::Rd, 0, 0, 5), 5}},
        {{5, "tRCD", "CAS 5 after ACT < tRCD"}});
}

TEST(CheckerDetailText, ColumnTurnaroundAndBus)
{
    expectExactViolations(
        {{act(0, 0, 5), 0},
         {act(0, 1, 5), 5},
         {cmd(CmdType::Rd, 0, 0, 5), 16},
         {cmd(CmdType::Rd, 0, 1, 5), 18}},
        {{18, "tCCD", "RD-to-RD same rank < tCCD"},
         {18, "data-bus", "burst at 29 overlaps burst ending 31"}});
    expectExactViolations(
        {{act(0, 0, 5), 0},
         {act(0, 1, 5), 5},
         {cmd(CmdType::Wr, 0, 0, 5), 16},
         {cmd(CmdType::Wr, 0, 1, 5), 18}},
        {{18, "tCCD", "WR-to-WR same rank < tCCD"},
         {18, "data-bus", "burst at 23 overlaps burst ending 25"}});
    expectExactViolations(
        {{act(0, 0, 5), 0},
         {cmd(CmdType::Rd, 0, 0, 5), 11},
         {cmd(CmdType::Wr, 0, 0, 5), 15}},
        {{15, "rd2wr", "RD-to-WR same rank gap 4 < 10"},
         {15, "data-bus", "burst at 20 overlaps burst ending 26"}});
    expectExactViolations(
        {{act(0, 0, 5), 0},
         {cmd(CmdType::Wr, 0, 0, 5), 11},
         {cmd(CmdType::Rd, 0, 0, 5), 20}},
        {{20, "tWTR", "WR-to-RD same rank gap 9 < 15"}});
    expectExactViolations(
        {{act(0, 0, 5), 0},
         {act(1, 0, 5), 1},
         {cmd(CmdType::Rd, 0, 0, 5), 11},
         {cmd(CmdType::Rd, 1, 0, 5), 16}},
        {{16, "tRTRS", "rank switch gap 1 < tRTRS"}});
}

TEST(CheckerDetailText, Precharge)
{
    expectExactViolations({{cmd(CmdType::Pre, 0, 0), 0}},
                          {{0, "row-state", "PRE to closed bank"}});
    expectExactViolations(
        {{act(0, 0, 5), 0}, {cmd(CmdType::Pre, 0, 0), 10}},
        {{10, "tRAS", "PRE 10 after ACT < tRAS"}});
    expectExactViolations(
        {{act(0, 0, 5), 0},
         {cmd(CmdType::Rd, 0, 0, 5), 25},
         {cmd(CmdType::Pre, 0, 0), 28}},
        {{28, "tRTP", "PRE too soon after column read"}});
    expectExactViolations(
        {{act(0, 0, 5), 0},
         {cmd(CmdType::Wr, 0, 0, 5), 20},
         {cmd(CmdType::Pre, 0, 0), 30}},
        {{30, "tWR", "PRE too soon after column write"}});
}

TEST(CheckerDetailText, RefreshPreconditions)
{
    expectExactViolations(
        {{act(0, 3, 5), 0}, {cmd(CmdType::Ref, 0, 0), 100}},
        {{100, "row-state", "REF with open row in bank 3"}});
    expectExactViolations(
        {{act(0, 2, 5), 0},
         {cmd(CmdType::Pre, 0, 2), 30},
         {cmd(CmdType::Ref, 0, 0), 35}},
        {{35, "tRP", "REF before precharge completes in bank 2"}});
}
