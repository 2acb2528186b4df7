#include "dram/dram_system.hh"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iostream>

#include "fault/fault_injector.hh"
#include "util/logging.hh"
#include "util/serialize.hh"
#include "util/sim_error.hh"

namespace memsec::dram {

namespace {

/**
 * Process-wide crash-dump attempt counter: every dump gets a unique
 * suffix no matter which worker thread (or which retry of the same
 * fingerprint) produced it.
 */
std::atomic<uint64_t> &
crashDumpSeq()
{
    static std::atomic<uint64_t> seq{0};
    return seq;
}

} // namespace

DramSystem::DramSystem(const TimingParams &tp, const Geometry &geo)
    : tp_(tp), geo_(geo), buses_(tp_),
      checker_(tp_, geo.ranksPerChannel, geo.banksPerRank)
{
    tp_.validate();
    geo_.validate();
    ranks_.reserve(geo.ranksPerChannel);
    for (unsigned r = 0; r < geo.ranksPerChannel; ++r)
        ranks_.emplace_back(geo.banksPerRank, tp_);
    crashHandlerId_ = addCrashHandler([this] {
        // Straight to stderr: this runs on the panic path, where the
        // quiet flag must not eat the post-mortem.
        const std::string dump = cmdLog_.snapshot();
        if (crashDir_.empty()) {
            std::cerr << dump;
            return;
        }
        const uint64_t n = crashDumpSeq()++;
        const std::string path = crashDir_ + "/cmdlog-" + crashTag_ +
                                 "-" + std::to_string(n) + ".log";
        std::ofstream out(path, std::ios::trunc);
        if (!out) {
            std::cerr << dump;
            return;
        }
        out << dump;
        std::cerr << "crash command log written to " << path << "\n";
    });
}

void
DramSystem::setCrashDumpDir(const std::string &dir, const std::string &tag)
{
    crashDir_ = dir;
    crashTag_ = tag;
}

template <class Self, class Ar>
void
DramSystem::transfer(Self &self, Ar &a)
{
    a.section("dram");
    a.fixed(self.ranks_, "rank count mismatch",
            [&](auto &rk) { a.nested(rk); });
    a.nested(self.buses_);
    a.nested(self.checker_);
    a.u64(self.commandsIssued_);
    a.u64(self.illegalIssues_);
    a.nested(self.cmdLog_);
}

template void DramSystem::transfer(const DramSystem &, Serializer &);
template void DramSystem::transfer(DramSystem &, Deserializer &);

DramSystem::~DramSystem()
{
    removeCrashHandler(crashHandlerId_);
}

void
DramSystem::setStrict(bool strict)
{
    strict_ = strict;
    checker_.setStrict(strict);
}

void
DramSystem::attachFaultInjector(fault::FaultInjector *inj)
{
    injector_ = inj;
    if (!inj)
        return;
    setStrict(false);
    if (inj->spec().kind == fault::FaultKind::TimingDrift) {
        // The device's true timing has drifted; audit against it while
        // the fast path keeps scheduling with the nominal parameters.
        checker_ = TimingChecker(inj->driftTimings(tp_),
                                 geo_.ranksPerChannel, geo_.banksPerRank);
        checker_.setStrict(false);
    }
}

IssueResult
DramSystem::issue(const Command &cmd, Cycle now)
{
    const char *why =
        blockingRule(cmd.type, cmd.rank, cmd.bank, cmd.row, now);
    const bool legal = why == nullptr;
    // Record before any panic so the crash snapshot includes the
    // command that killed the run.
    cmdLog_.record(cmd, now);
    panic_if(!legal && strict_, "illegal issue of {} at {}: {}",
             cmd.toString(), now, why);

    // Independent audit first, so a fast-path bug cannot mask a real
    // constraint violation. With an injector attached the checker
    // observes the mutated audit stream instead of the real command.
    // Under sim.compiled=on (a verifier-proven design point only) the
    // audit is skipped outright: legality of the template is carried
    // by the ScheduleVerifier's static hyperperiod proof (canIssue()
    // above still enforces the fast-path state machine).
    if (injector_) {
        for (const auto &[acmd, at] : injector_->auditView(cmd, now))
            checker_.observe(acmd, at);
    } else if (compiledMode_ != CompiledMode::On) {
        checker_.observe(cmd, now);
    }
    ++commandsIssued_;

    if (!legal) {
        // Record-and-continue: don't apply an illegal transition to
        // the device state machine, but report a nominal burst window
        // so the owning request still completes.
        ++illegalIssues_;
        if (report_)
            report_->record(
                {now, "illegal-issue", cmd.toString() + ": " + why});
        IssueResult res;
        if (isColumn(cmd.type)) {
            res.dataStart = now + (isRead(cmd.type) ? tp_.cas : tp_.cwd);
            res.dataEnd = res.dataStart + tp_.burst;
        }
        return res;
    }

    buses_.useCmdBus(now);

    Rank &rk = ranks_[cmd.rank];
    // Residency before `now` belongs to the state this command ends.
    rk.settleEnergy(now);
    IssueResult res;

    switch (cmd.type) {
      case CmdType::Act:
        rk.activateBank(cmd.bank, now, cmd.row);
        rk.recordActivate(now, cmd.suppressed);
        break;
      case CmdType::Rd:
      case CmdType::RdA: {
        rk.readBank(cmd.bank, now, isAutoPrecharge(cmd.type));
        rk.recordRead(now);
        res.dataStart = now + tp_.cas;
        res.dataEnd = res.dataStart + tp_.burst;
        buses_.reserveData(res.dataStart, cmd.rank);
        if (cmd.suppressed)
            ++rk.energy().suppressedCas;
        else
            ++rk.energy().reads;
        break;
      }
      case CmdType::Wr:
      case CmdType::WrA: {
        rk.writeBank(cmd.bank, now, isAutoPrecharge(cmd.type));
        rk.recordWrite(now);
        res.dataStart = now + tp_.cwd;
        res.dataEnd = res.dataStart + tp_.burst;
        buses_.reserveData(res.dataStart, cmd.rank);
        if (cmd.suppressed)
            ++rk.energy().suppressedCas;
        else
            ++rk.energy().writes;
        break;
      }
      case CmdType::Pre:
        rk.prechargeBank(cmd.bank, now);
        break;
      case CmdType::Ref:
        rk.startRefresh(now);
        break;
      case CmdType::PdEnter:
        rk.enterPowerDown(now);
        break;
      case CmdType::PdExit:
        rk.exitPowerDown(now);
        break;
    }
    return res;
}

void
DramSystem::setCompiledMode(CompiledMode mode, size_t unused)
{
    (void)unused;
    fatal_if(mode != CompiledMode::Off && injector_,
             "sim.compiled requires fault injection to be off");
    compiledMode_ = mode;
}

void
DramSystem::tick(Cycle now)
{
    for (auto &rk : ranks_)
        rk.settleEnergy(now + 1);
}

void
DramSystem::fastForwardEnergy(Cycle from, Cycle to)
{
    (void)from; // each rank resumes from its own cursor, >= from
    for (auto &rk : ranks_)
        rk.settleEnergy(to);
}

} // namespace memsec::dram
