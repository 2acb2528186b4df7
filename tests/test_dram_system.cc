#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "dram/dram_system.hh"

using namespace memsec;
using namespace memsec::dram;

namespace {

class DramSystemTest : public ::testing::Test
{
  protected:
    DramSystemTest()
        : sys(TimingParams::ddr3_1600_4gb(), Geometry{})
    {
    }

    Command
    mk(CmdType t, unsigned rank, unsigned bank, unsigned row = 0)
    {
        return Command{t, rank, bank, row, 0, false};
    }

    DramSystem sys;
};

} // namespace

TEST_F(DramSystemTest, ReadTransactionReturnsDataWindow)
{
    const auto &tp = sys.timing();
    sys.issue(mk(CmdType::Act, 0, 0, 9), 0);
    const IssueResult r = sys.issue(mk(CmdType::RdA, 0, 0, 9), tp.rcd);
    EXPECT_EQ(r.dataStart, tp.rcd + tp.cas);
    EXPECT_EQ(r.dataEnd, tp.rcd + tp.cas + tp.burst);
}

TEST_F(DramSystemTest, WriteTransactionDataWindow)
{
    const auto &tp = sys.timing();
    sys.issue(mk(CmdType::Act, 0, 0, 9), 0);
    const IssueResult r = sys.issue(mk(CmdType::WrA, 0, 0, 9), tp.rcd);
    EXPECT_EQ(r.dataStart, tp.rcd + tp.cwd);
    EXPECT_EQ(r.dataEnd, tp.rcd + tp.cwd + tp.burst);
}

TEST_F(DramSystemTest, CanIssueReportsBlockingRule)
{
    std::string why;
    EXPECT_FALSE(sys.canIssue(mk(CmdType::Rd, 0, 0, 9), 0, &why));
    EXPECT_EQ(why, "row not open");

    sys.issue(mk(CmdType::Act, 0, 0, 9), 0);
    EXPECT_FALSE(sys.canIssue(mk(CmdType::Act, 0, 1, 9), 2, &why));
    EXPECT_EQ(why, "rank tRRD/tFAW");
}

TEST_F(DramSystemTest, IllegalIssuePanics)
{
    EXPECT_THROW(sys.issue(mk(CmdType::Rd, 0, 0, 9), 0),
                 std::logic_error);
}

TEST_F(DramSystemTest, CommandBusSharedAcrossRanks)
{
    sys.issue(mk(CmdType::Act, 0, 0, 9), 0);
    std::string why;
    EXPECT_FALSE(sys.canIssue(mk(CmdType::Act, 5, 0, 9), 0, &why));
    EXPECT_EQ(why, "command bus busy");
    EXPECT_TRUE(sys.canIssue(mk(CmdType::Act, 5, 0, 9), 1, &why));
}

TEST_F(DramSystemTest, EnergyCountersTrackCommands)
{
    const auto &tp = sys.timing();
    sys.issue(mk(CmdType::Act, 2, 3, 9), 0);
    sys.issue(mk(CmdType::RdA, 2, 3, 9), tp.rcd);
    EXPECT_EQ(sys.rank(2).energy().activates, 1u);
    EXPECT_EQ(sys.rank(2).energy().reads, 1u);
    EXPECT_EQ(sys.rank(2).energy().writes, 0u);
}

TEST_F(DramSystemTest, SuppressedCommandsNotCharged)
{
    const auto &tp = sys.timing();
    Command a = mk(CmdType::Act, 1, 0, 9);
    a.suppressed = true;
    sys.issue(a, 0);
    Command r = mk(CmdType::RdA, 1, 0, 9);
    r.suppressed = true;
    sys.issue(r, tp.rcd);
    EXPECT_EQ(sys.rank(1).energy().activates, 0u);
    EXPECT_EQ(sys.rank(1).energy().reads, 0u);
    EXPECT_EQ(sys.rank(1).energy().suppressedActs, 1u);
    EXPECT_EQ(sys.rank(1).energy().suppressedCas, 1u);
}

TEST_F(DramSystemTest, CheckerSeesEveryCommand)
{
    const auto &tp = sys.timing();
    sys.issue(mk(CmdType::Act, 0, 0, 9), 0);
    sys.issue(mk(CmdType::RdA, 0, 0, 9), tp.rcd);
    EXPECT_EQ(sys.checker().observed(), 2u);
    EXPECT_EQ(sys.commandsIssued(), 2u);
}

TEST_F(DramSystemTest, RefreshBlocksRank)
{
    const auto &tp = sys.timing();
    sys.issue(mk(CmdType::Ref, 4, 0), 0);
    std::string why;
    EXPECT_FALSE(sys.canIssue(mk(CmdType::Act, 4, 0, 1), tp.rfc - 1,
                              &why));
    EXPECT_EQ(why, "rank refreshing");
    EXPECT_TRUE(sys.canIssue(mk(CmdType::Act, 4, 0, 1), tp.rfc, &why));
}

TEST_F(DramSystemTest, PowerDownRoundTrip)
{
    const auto &tp = sys.timing();
    sys.issue(mk(CmdType::PdEnter, 3, 0), 0);
    EXPECT_TRUE(sys.rank(3).isPoweredDown());
    std::string why;
    EXPECT_FALSE(sys.canIssue(mk(CmdType::Act, 3, 0, 1), 2, &why));
    sys.issue(mk(CmdType::PdExit, 3, 0), tp.cke);
    EXPECT_FALSE(sys.rank(3).isPoweredDown());
    EXPECT_FALSE(sys.canIssue(mk(CmdType::Act, 3, 0, 1),
                              tp.cke + tp.xp - 1, &why));
    EXPECT_TRUE(
        sys.canIssue(mk(CmdType::Act, 3, 0, 1), tp.cke + tp.xp, &why));
}

TEST_F(DramSystemTest, TickAccumulatesEnergyResidency)
{
    for (Cycle t = 0; t < 100; ++t)
        sys.tick(t);
    EXPECT_EQ(sys.rank(0).energy().cyclesPrecharge, 100u);
}

// ---- Energy residency: lazily applied commands vs per-cycle ticks --
//
// Replayed commands reach the device inside fast-forward spans, after
// the cycles around them were skipped. issue() settles the rank up to
// the command's cycle first, so every mix of executed cycles, skipped
// spans and commands applied inside them must leave the residency
// counters exactly where per-cycle ticking leaves them.

namespace {

struct TimedCommand
{
    Cycle at = 0;
    Command cmd;
};

/** Naive loop: every cycle issues its commands, then ticks. */
void
runPerCycle(DramSystem &dram, const std::vector<TimedCommand> &script,
            Cycle end)
{
    size_t next = 0;
    for (Cycle t = 0; t < end; ++t) {
        for (; next < script.size() && script[next].at == t; ++next)
            dram.issue(script[next].cmd, t);
        dram.tick(t);
    }
}

/**
 * Fast-forward loop: only the `executed` cycles tick; every other
 * span is skipped in one fastForwardEnergy() call, with the commands
 * that fall inside it applied first, as MemoryController::fastForward
 * does with the replay ring.
 */
void
runSkipping(DramSystem &dram, const std::vector<TimedCommand> &script,
            Cycle end, const std::vector<Cycle> &executed)
{
    size_t next = 0;
    Cycle t = 0;
    size_t e = 0;
    while (t < end) {
        const bool tick = e < executed.size() && executed[e] == t;
        const Cycle to = tick ? t + 1
                              : (e < executed.size() ? executed[e] : end);
        for (; next < script.size() && script[next].at < to; ++next)
            dram.issue(script[next].cmd, script[next].at);
        if (tick) {
            dram.tick(t);
            ++e;
        } else {
            dram.fastForwardEnergy(t, to);
        }
        t = to;
    }
}

void
expectSameResidency(const std::vector<TimedCommand> &script, Cycle end,
                    const std::vector<Cycle> &executed)
{
    const auto tp = TimingParams::ddr3_1600_4gb();
    DramSystem naive(tp, Geometry{});
    DramSystem lazy(tp, Geometry{});
    runPerCycle(naive, script, end);
    runSkipping(lazy, script, end, executed);
    for (unsigned r = 0; r < naive.numRanks(); ++r) {
        const RankEnergyCounters &a = naive.rank(r).energy();
        const RankEnergyCounters &b = lazy.rank(r).energy();
        EXPECT_EQ(a.cyclesActive, b.cyclesActive) << "rank " << r;
        EXPECT_EQ(a.cyclesPrecharge, b.cyclesPrecharge) << "rank " << r;
        EXPECT_EQ(a.cyclesPowerDown, b.cyclesPowerDown) << "rank " << r;
        EXPECT_EQ(a.cyclesRefreshing, b.cyclesRefreshing) << "rank " << r;
        EXPECT_EQ(a.activates, b.activates) << "rank " << r;
        EXPECT_EQ(a.refreshes, b.refreshes) << "rank " << r;
        EXPECT_EQ(lazy.rank(r).energyCursor(), end) << "rank " << r;
    }
}

Command
command(CmdType t, unsigned rank, unsigned bank, unsigned row = 0)
{
    return Command{t, rank, bank, row, 0, false};
}

} // namespace

TEST(DramSystemEnergy, CommandInsideFastForwardSpan)
{
    const auto tp = TimingParams::ddr3_1600_4gb();
    // Two overlapping read transactions on one rank, one on another.
    const std::vector<TimedCommand> script = {
        {10, command(CmdType::Act, 0, 0, 5)},
        {10 + tp.rrd, command(CmdType::Act, 0, 1, 7)},
        {10 + tp.rcd, command(CmdType::RdA, 0, 0, 5)},
        {10 + tp.rrd + tp.rcd, command(CmdType::RdA, 0, 1, 7)},
        {40, command(CmdType::Act, 3, 2, 1)},
        {40 + tp.rcd, command(CmdType::WrA, 3, 2, 1)},
    };
    expectSameResidency(script, 200, {});             // one jump
    expectSameResidency(script, 200, {0, 10, 27, 99}); // mixed
}

TEST(DramSystemEnergy, CommandInsideRefreshWindow)
{
    const auto tp = TimingParams::ddr3_1600_4gb();
    // REF on rank 1 mid-span; the span ends inside tRFC, the next one
    // covers its completion and an ACT right after it.
    const Cycle ref = 20;
    const std::vector<TimedCommand> script = {
        {ref, command(CmdType::Ref, 1, 0)},
        {ref + 1, command(CmdType::Ref, 2, 0)},
        {ref + tp.rfc + 3, command(CmdType::Act, 1, 0, 4)},
        {ref + tp.rfc + 3 + tp.rcd, command(CmdType::RdA, 1, 0, 4)},
    };
    const Cycle end = ref + tp.rfc + 100;
    expectSameResidency(script, end, {});
    expectSameResidency(script, end, {ref + tp.rfc / 2, ref + tp.rfc});
}

TEST(DramSystemEnergy, CommandInsidePowerDownSpan)
{
    const auto tp = TimingParams::ddr3_1600_4gb();
    const Cycle pde = 30;
    const Cycle pdx = pde + tp.cke + 50;
    const std::vector<TimedCommand> script = {
        {pde, command(CmdType::PdEnter, 2, 0)},
        {pdx, command(CmdType::PdExit, 2, 0)},
        {pdx + tp.xp, command(CmdType::Act, 2, 3, 8)},
        {pdx + tp.xp + tp.rcd, command(CmdType::RdA, 2, 3, 8)},
    };
    const Cycle end = pdx + 150;
    expectSameResidency(script, end, {});
    expectSameResidency(script, end, {pde, pde + 1, pdx + 2});
}

TEST_F(DramSystemTest, DataBusUtilisationCounted)
{
    const auto &tp = sys.timing();
    sys.issue(mk(CmdType::Act, 0, 0, 9), 0);
    sys.issue(mk(CmdType::RdA, 0, 0, 9), tp.rcd);
    EXPECT_EQ(sys.buses().dataBusyCycles(), tp.burst);
}

// Crash handlers are a process-wide registry, so one panic dumps the
// command log of EVERY live DramSystem. Two systems sharing a crash
// dir and fingerprint tag (e.g. a retried run in a parallel campaign)
// must still land in distinct files — the process-wide dump counter
// suffixes each path.
TEST(DramSystemCrashDump, ConcurrentDumpsGetDistinctPaths)
{
    std::string tmpl = ::testing::TempDir() + "memsec-crash-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    ASSERT_NE(mkdtemp(buf.data()), nullptr);
    const std::string dir(buf.data());

    DramSystem a(TimingParams::ddr3_1600_4gb(), Geometry{});
    DramSystem b(TimingParams::ddr3_1600_4gb(), Geometry{});
    a.setCrashDumpDir(dir, "sametag");
    b.setCrashDumpDir(dir, "sametag");
    a.issue(Command{CmdType::Act, 0, 0, 9, 0, false}, 0);
    // Illegal issue: panics, and the panic path runs both systems'
    // dump handlers against the same dir/tag.
    EXPECT_THROW(a.issue(Command{CmdType::Rd, 0, 1, 9, 0, false}, 0),
                 std::logic_error);

    std::vector<std::string> dumps;
    for (const auto &ent : std::filesystem::directory_iterator(dir)) {
        const std::string name = ent.path().filename().string();
        if (name.rfind("cmdlog-sametag-", 0) == 0)
            dumps.push_back(name);
    }
    ASSERT_EQ(dumps.size(), 2u)
        << "expected one uniquely named dump per live DramSystem";
    EXPECT_NE(dumps[0], dumps[1]);
}

namespace {

/** Issue `setup` on a fresh system, then return the reason canIssue
 *  gives for `probe` at `at` ("" when it is legal). */
std::string
blockReason(const std::vector<std::pair<Command, Cycle>> &setup,
            const Command &probe, Cycle at)
{
    DramSystem s(TimingParams::ddr3_1600_4gb(), Geometry{});
    for (const auto &[c, t] : setup)
        s.issue(c, t);
    std::string why;
    return s.canIssue(probe, at, &why) ? "" : why;
}

Command
c(CmdType t, unsigned rank, unsigned bank, unsigned row = 9)
{
    return Command{t, rank, bank, row, 0, false};
}

} // namespace

// Every reason canIssue reports, pinned verbatim: illegal-issue
// RunReport entries and panic messages quote these strings.
TEST(DramSystemWhy, EveryBlockingReasonIsStable)
{
    using T = CmdType;
    EXPECT_EQ(blockReason({{c(T::Act, 0, 0), 0}}, c(T::Act, 1, 0), 0),
              "command bus busy");
    EXPECT_EQ(blockReason({{c(T::Ref, 1, 0), 0}}, c(T::Act, 1, 0), 5),
              "rank refreshing");
    EXPECT_EQ(blockReason({{c(T::PdEnter, 2, 0), 0}}, c(T::Act, 2, 0), 5),
              "rank powered down");
    EXPECT_EQ(blockReason({{c(T::Act, 0, 0), 0}}, c(T::Act, 0, 0), 50),
              "bank has open row");
    EXPECT_EQ(blockReason({{c(T::Act, 0, 0), 0}, {c(T::Pre, 0, 0), 28}},
                          c(T::Act, 0, 0), 30),
              "bank tRC/tRP");
    EXPECT_EQ(blockReason({{c(T::Act, 0, 0), 0}}, c(T::Act, 0, 1), 2),
              "rank tRRD/tFAW");
    EXPECT_EQ(blockReason({}, c(T::Rd, 0, 0), 0), "row not open");
    EXPECT_EQ(blockReason({{c(T::Act, 0, 0), 0}}, c(T::Rd, 0, 0), 5),
              "bank tRCD (read)");
    EXPECT_EQ(blockReason({{c(T::Act, 0, 0), 0}}, c(T::WrA, 0, 0), 5),
              "bank tRCD (write)");
    EXPECT_EQ(blockReason({{c(T::Act, 0, 0), 0},
                           {c(T::Act, 0, 1), 5},
                           {c(T::Wr, 0, 0), 16}},
                          c(T::RdA, 0, 1), 20),
              "rank CAS turnaround (read)");
    EXPECT_EQ(blockReason({{c(T::Act, 0, 0), 0},
                           {c(T::Act, 0, 1), 5},
                           {c(T::Rd, 0, 0), 16}},
                          c(T::Wr, 0, 1), 20),
              "rank CAS turnaround (write)");
    EXPECT_EQ(blockReason({{c(T::Act, 0, 0), 0},
                           {c(T::Act, 1, 0), 1},
                           {c(T::Rd, 0, 0), 11}},
                          c(T::Rd, 1, 0), 16),
              "data bus / tRTRS");
    EXPECT_EQ(blockReason({}, c(T::Pre, 0, 0), 0), "bank already closed");
    EXPECT_EQ(blockReason({{c(T::Act, 0, 0), 0}}, c(T::Pre, 0, 0), 10),
              "bank tRAS/tRTP/tWR");
    EXPECT_EQ(blockReason({{c(T::Act, 0, 0), 0}}, c(T::Ref, 0, 0), 100),
              "banks not precharged for REF");
    EXPECT_EQ(blockReason({{c(T::Act, 0, 0), 0}}, c(T::PdEnter, 0, 0), 100),
              "open rows prevent power-down");
    EXPECT_EQ(blockReason({{c(T::PdEnter, 3, 0), 0}, {c(T::PdExit, 3, 0), 4}},
                          c(T::PdEnter, 3, 0), 8),
              "tXP after power-down exit");
    EXPECT_EQ(blockReason({}, c(T::PdExit, 0, 0), 0),
              "rank not powered down");
    EXPECT_EQ(blockReason({{c(T::PdEnter, 3, 0), 0}}, c(T::PdExit, 3, 0), 2),
              "tCKE residency");
}
