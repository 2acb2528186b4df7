/**
 * @file
 * Single-channel DRAM device model.
 *
 * DramSystem is the authority on DRAM state for one channel: it owns
 * the ranks/banks, the shared buses, and the independent
 * TimingChecker. Schedulers ask canIssue() and then issue(); issue()
 * both updates the fast-path state and feeds the auditor, so an
 * inconsistent scheduler is caught immediately.
 */

#ifndef MEMSEC_DRAM_DRAM_SYSTEM_HH
#define MEMSEC_DRAM_DRAM_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "dram/channel.hh"
#include "dram/command.hh"
#include "dram/rank.hh"
#include "dram/timing.hh"
#include "dram/timing_checker.hh"
#include "fault/command_log.hh"
#include "sim/compiled_schedule.hh"
#include "sim/types.hh"
#include "util/logging.hh"

namespace memsec {
class RunReport;
namespace fault {
class FaultInjector;
} // namespace fault
} // namespace memsec

namespace memsec::dram {

/** Result of a column command: when its data burst completes. */
struct IssueResult
{
    Cycle dataStart = 0; ///< first cycle of the data burst (column cmds)
    Cycle dataEnd = 0;   ///< one past the last burst cycle
};

/** One memory channel's worth of DRAM devices. */
class DramSystem
{
  public:
    DramSystem(const TimingParams &tp, const Geometry &geo);
    ~DramSystem();

    // The registered crash handler captures `this`; moving or copying
    // the object would leave the handler dangling.
    DramSystem(const DramSystem &) = delete;
    DramSystem &operator=(const DramSystem &) = delete;

    /**
     * The device's one legality rule set: the first rule that blocks
     * a `type` command to (rank, bank, row) at `now`, checked in a
     * fixed order, or nullptr when the command is legal. canIssue()
     * and issue() both derive from it. Inline, so a scheduler scan
     * can test every candidate without building a Command or a
     * string. Fatal on an out-of-range rank.
     */
    const char *blockingRule(CmdType type, unsigned rank, unsigned bank,
                             unsigned row, Cycle now) const;

    /** True if `cmd` may legally issue at cycle `now`; optionally
     *  reports the blocking rule. */
    bool
    canIssue(const Command &cmd, Cycle now,
             std::string *why = nullptr) const
    {
        const char *rule =
            blockingRule(cmd.type, cmd.rank, cmd.bank, cmd.row, now);
        if (rule && why)
            *why = rule;
        return rule == nullptr;
    }

    /**
     * Issue a command at cycle `now`. Panics if illegal. For column
     * commands the returned IssueResult carries the data-burst window;
     * for others it is zero.
     */
    IssueResult issue(const Command &cmd, Cycle now);

    /**
     * Energy residency. Each rank is settled up to a command's cycle
     * just before issue() changes its state, and tick(now) /
     * fastForwardEnergy(from, to) settle every rank to the end of the
     * executed cycle / skipped span. That is the residency per-cycle
     * sampling would give (refresh and power-down included), for any
     * mix of executed cycles, skipped spans and commands applied
     * lazily inside them.
     */
    void tick(Cycle now);
    void fastForwardEnergy(Cycle from, Cycle to);

    Rank &rank(unsigned r) { return ranks_.at(r); }
    const Rank &rank(unsigned r) const { return ranks_.at(r); }
    unsigned numRanks() const { return static_cast<unsigned>(ranks_.size()); }

    ChannelBuses &buses() { return buses_; }
    const ChannelBuses &buses() const { return buses_; }

    const TimingParams &timing() const { return tp_; }
    const Geometry &geometry() const { return geo_; }
    TimingChecker &checker() { return checker_; }
    const TimingChecker &checker() const { return checker_; }

    /** Total commands issued. */
    uint64_t commandsIssued() const { return commandsIssued_; }

    /**
     * sim.compiled=on for a design point its scheduler proved with
     * the ScheduleVerifier (Scheduler::enableCompiledReplay returned
     * true): issue() then skips the shadow TimingChecker, whose work
     * the static hyperperiod proof has already done. Off keeps the
     * full audit. The size_t argument is no longer read.
     * Incompatible with a fault injector (the audit stream is the
     * whole point of an injection run).
     */
    void setCompiledMode(CompiledMode mode, size_t unused = 0);
    CompiledMode compiledMode() const { return compiledMode_; }

    /**
     * Attach a fault injector: the checker observes the injector's
     * mutated audit stream instead of the real command stream. Puts
     * this system and the checker into record-and-continue mode (an
     * injection campaign must survive its own faults); for
     * timing-drift kinds the checker is rebuilt against the drifted
     * parameter set.
     */
    void attachFaultInjector(fault::FaultInjector *inj);

    /** Route recoverable faults here instead of panicking. */
    void setReport(RunReport *report) { report_ = report; }

    /**
     * Strict (default): an illegal issue() is a panic. Non-strict: it
     * is recorded (to the attached report, if any), the command is
     * still audited, and the fast-path state is left untouched.
     */
    void setStrict(bool strict);

    /** Illegal issues survived in non-strict mode. */
    uint64_t illegalIssues() const { return illegalIssues_; }

    /** Last-K-commands ring dumped as a crash snapshot on panic. */
    const fault::CommandLog &commandLog() const { return cmdLog_; }

    /**
     * Write the crash-time command-log dump to a file
     * `<dir>/cmdlog-<tag>-<N>.log` instead of stderr. N comes from a
     * process-wide attempt counter, so parallel campaign workers — or
     * repeated attempts at the same config — can never overwrite each
     * other's post-mortems even when they share a tag. The campaign
     * harness passes the run's config fingerprint as the tag.
     */
    void setCrashDumpDir(const std::string &dir, const std::string &tag);

    /** Checkpoint layout (util/serialize.hh): device, bus and
     *  auditor state; the timing params are config. */
    template <class Self, class Ar>
    static void transfer(Self &self, Ar &a);

  private:
    TimingParams tp_;
    Geometry geo_;
    std::vector<Rank> ranks_;
    ChannelBuses buses_;
    TimingChecker checker_;
    uint64_t commandsIssued_ = 0;

    CompiledMode compiledMode_ = CompiledMode::Off;

    fault::FaultInjector *injector_ = nullptr;
    RunReport *report_ = nullptr;
    bool strict_ = true;
    uint64_t illegalIssues_ = 0;
    fault::CommandLog cmdLog_{32};
    int crashHandlerId_ = -1;
    std::string crashDir_; ///< empty = dump to stderr
    std::string crashTag_;
};

inline const char *
DramSystem::blockingRule(CmdType type, unsigned rank, unsigned bank,
                         unsigned row, Cycle now) const
{
    if (!buses_.cmdBusFree(now))
        return "command bus busy";

    fatal_if(rank >= ranks_.size(), "rank {} out of range", rank);
    const Rank &rk = ranks_[rank];
    if (type != CmdType::PdExit) {
        if (now < rk.refreshEndsAt())
            return "rank refreshing";
        if (rk.isPoweredDown())
            return "rank powered down";
    }

    switch (type) {
      case CmdType::Act: {
        const Bank &bk = rk.bank(bank);
        if (bk.isOpen())
            return "bank has open row";
        if (now < bk.nextAct())
            return "bank tRC/tRP";
        if (now < rk.nextActRankLimit())
            return "rank tRRD/tFAW";
        return nullptr;
      }
      case CmdType::Rd:
      case CmdType::RdA:
      case CmdType::Wr:
      case CmdType::WrA: {
        const Bank &bk = rk.bank(bank);
        const bool rd = type == CmdType::Rd || type == CmdType::RdA;
        if (!bk.isOpen() || bk.openRow() != row)
            return "row not open";
        if (rd && now < bk.nextRead())
            return "bank tRCD (read)";
        if (!rd && now < bk.nextWrite())
            return "bank tRCD (write)";
        if (rd && now < rk.nextRead())
            return "rank CAS turnaround (read)";
        if (!rd && now < rk.nextWrite())
            return "rank CAS turnaround (write)";
        const Cycle dataStart = now + (rd ? tp_.cas : tp_.cwd);
        if (!buses_.dataBusFree(dataStart, rank))
            return "data bus / tRTRS";
        return nullptr;
      }
      case CmdType::Pre: {
        const Bank &bk = rk.bank(bank);
        if (!bk.isOpen())
            return "bank already closed";
        if (now < bk.nextPre())
            return "bank tRAS/tRTP/tWR";
        return nullptr;
      }
      case CmdType::Ref:
        if (!rk.allBanksIdleBy(now))
            return "banks not precharged for REF";
        return nullptr;
      case CmdType::PdEnter:
        if (rk.anyBankOpen())
            return "open rows prevent power-down";
        if (now < rk.pdExitReadyAt())
            return "tXP after power-down exit";
        return nullptr;
      case CmdType::PdExit:
        if (!rk.isPoweredDown())
            return "rank not powered down";
        if (now < rk.earliestPdExit())
            return "tCKE residency";
        return nullptr;
    }
    return "unknown command";
}

} // namespace memsec::dram

#endif // MEMSEC_DRAM_DRAM_SYSTEM_HH
