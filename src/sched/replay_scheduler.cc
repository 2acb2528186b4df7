#include "sched/replay_scheduler.hh"

#include <algorithm>

#include "util/serialize.hh"

namespace memsec::sched {

using dram::CmdType;
using dram::Command;

void
ReplayRing::push(const ReplayEvent &ev)
{
    auto pos = std::upper_bound(
        events_.begin(), events_.end(), ev,
        [](const ReplayEvent &a, const ReplayEvent &b) {
            return a.at < b.at;
        });
    events_.insert(pos, ev);
}

Cycle
ReplayRing::minCompletion() const
{
    Cycle best = kNoCycle;
    for (const auto &ev : events_)
        if (ev.cas && ev.completeAt < best)
            best = ev.completeAt;
    return best;
}

ReplayScheduler::ReplayScheduler(mem::MemoryController &mc) : Scheduler(mc)
{
    const auto &geo = dram_.geometry();
    plannedBankFree_.assign(
        static_cast<size_t>(geo.ranksPerChannel) * geo.banksPerRank, 0);
    const auto &tp = dram_.timing();
    readDataDelta_ = tp.cas + tp.burst;
    writeDataDelta_ = tp.cwd + tp.burst;
}

void
ReplayScheduler::enqueueReplay(PlannedOp &op)
{
    // Clientless ops (dummies) retire silently at CAS apply; only a
    // client-visible completion needs an exact wake cycle.
    const Cycle completeAt = !op.req->client         ? kNoCycle
                             : op.releaseAt != kNoCycle ? op.releaseAt
                                                        : dataEnd(op);
    if (!op.actIssued)
        ring_.push({op.actAt, kNoCycle, &op, false});
    ring_.push({op.casAt, completeAt, &op, true});
}

void
ReplayScheduler::plan(PlannedOp op)
{
    planned_.push_back(std::move(op));
    enqueueReplay(planned_.back());
}

void
ReplayScheduler::applyUpTo(Cycle now)
{
    while (!ring_.empty() && ring_.front().at <= now) {
        const ReplayEvent ev = ring_.front();
        ring_.pop();
        PlannedOp &op = *ev.op;
        panic_if(!op.req, "compiled replay lost its request");
        const mem::Decoded &loc = op.req->loc;
        if (!ev.cas) {
            dram_.issue(Command{CmdType::Act, loc.rank, loc.bank, loc.row,
                                op.req->id, op.suppressAct},
                        ev.at);
            op.actIssued = true;
        } else {
            const CmdType type = op.write ? CmdType::WrA : CmdType::RdA;
            const dram::IssueResult res =
                dram_.issue(Command{type, loc.rank, loc.bank, loc.row,
                                    op.req->id, op.suppressCas},
                            ev.at);
            // Every CAS must end its burst exactly where planned, and
            // a fixed release may not precede the data it returns.
            panic_if(res.dataEnd != dataEnd(op) ||
                         res.dataEnd > op.releaseAt,
                     "compiled completion mispredicted: device {} vs "
                     "planned {} (release {})",
                     res.dataEnd, dataEnd(op), op.releaseAt);
            mc_.noteBurst(op.dummy);
            mc_.finishRequest(std::move(op.req),
                              op.releaseAt == kNoCycle ? res.dataEnd
                                                       : op.releaseAt);
        }
        ++compiledCmds_;
    }
    while (!planned_.empty() && !planned_.front().req)
        planned_.pop_front();
}

Cycle
ReplayScheduler::completionBound(Cycle decisionWake, Cycle now) const
{
    return std::max(std::min(decisionWake, ring_.minCompletion()),
                    now + 1);
}

bool
ReplayScheduler::bankFree(unsigned rank, unsigned bank, Cycle actAt) const
{
    const unsigned nb = dram_.geometry().banksPerRank;
    return actAt >=
           plannedBankFree_[static_cast<size_t>(rank) * nb + bank];
}

void
ReplayScheduler::reserveBank(unsigned rank, unsigned bank, Cycle actAt,
                             Cycle casAt, bool write)
{
    const auto &tp = dram_.timing();
    const Cycle preDone =
        write ? casAt + tp.cwd + tp.burst + tp.wr + tp.rp
              : std::max(casAt + tp.rtp + tp.rp, actAt + tp.rc);
    const unsigned nb = dram_.geometry().banksPerRank;
    plannedBankFree_[static_cast<size_t>(rank) * nb + bank] =
        std::max(actAt + tp.rc, preDone);
}

template <class Self, class Ar>
void
ReplayScheduler::transfer(Self &self, Ar &a)
{
    a.section("plan");
    a.seq(self.planned_, [&](auto &op) {
        bool hasReq = op.req != nullptr;
        a.flag(hasReq);
        if (hasReq)
            self.mc_.transferRequest(a, op.req);
        a.flag(op.write);
        a.flag(op.dummy);
        a.flag(op.suppressAct);
        a.flag(op.suppressCas);
        a.u64(op.actAt);
        a.u64(op.casAt);
        a.u64(op.releaseAt);
        a.flag(op.actIssued);
    });
    a.fixed(self.plannedBankFree_, "planned bank count mismatch",
            [&](auto &c) { a.u64(c); });
}

void
ReplayScheduler::transferPlan(Serializer &s) const
{
    transfer(*this, s);
}

void
ReplayScheduler::transferPlan(Deserializer &d)
{
    transfer(*this, d);
    // Replay state is derived, never serialized: rebuild the event
    // ring from the restored plan. This is what makes checkpoints
    // portable across sim.compiled modes.
    ring_.clear();
    for (PlannedOp &op : planned_) {
        if (op.req) // null: CAS already applied
            enqueueReplay(op);
    }
}

} // namespace memsec::sched
