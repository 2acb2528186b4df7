#include "sched/tp.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::sched {

using mem::MemRequest;
using mem::ReqType;

TpScheduler::TpScheduler(mem::MemoryController &mc, const Params &params)
    : ReplayScheduler(mc), params_(params)
{
    fatal_if(params_.turnLength == 0, "TP turn length must be nonzero");

    sharedBanks_ =
        mc.addressMap().partition() == mem::Partition::None;
    const core::PipelineSolver solver(dram_.timing());
    sol_ = solver.solveBest(sharedBanks_ ? core::PartitionLevel::None
                                         : core::PartitionLevel::Bank);
    fatal_if(!sol_.feasible, "no feasible in-turn TP pipeline");
    l_ = sol_.l;

    // Per-type footprint: cycles from the slot's ACT until every
    // piece of shared state is clean (and, with shared banks, the
    // bank is precharged again).
    const auto &tp = dram_.timing();
    const unsigned dataReadDone = tp.rcd + tp.cas + tp.burst + tp.rtrs;
    const unsigned dataWriteDone = tp.rcd + tp.cwd + tp.burst + tp.rtrs;
    if (sharedBanks_) {
        const unsigned readPre =
            std::max(tp.rc, tp.rcd + tp.rtp + tp.rp);
        footRead_ = std::max(dataReadDone, readPre);
        footWrite_ = tp.rcd + tp.cwd + tp.burst + tp.wr + tp.rp;
    } else {
        footRead_ = dataReadDone;
        footWrite_ =
            std::max(dataWriteDone, tp.rcd + tp.wr2rd());
    }
    footRead_ += params_.extraDead;
    footWrite_ += params_.extraDead;
    fatal_if(footWrite_ > params_.turnLength ||
                 footRead_ > params_.turnLength,
             "TP turn length {} shorter than a transaction footprint "
             "({}/{})",
             params_.turnLength, footRead_, footWrite_);

    // Replay events sit at `now + offset`; a negative offset would put
    // a command before the decision that plans it.
    const auto &off = sol_.offsets;
    fatal_if(off.actRead < 0 || off.casRead < 0 || off.actWrite < 0 ||
                 off.casWrite < 0,
             "TP pipeline has a negative command offset");
}

DomainId
TpScheduler::activeDomain(Cycle now) const
{
    return static_cast<DomainId>((now / params_.turnLength) %
                                 mc_.numDomains());
}

Cycle
TpScheduler::turnEnd(Cycle now) const
{
    return (now / params_.turnLength + 1) * params_.turnLength;
}

void
TpScheduler::decideSlot(Cycle now)
{
    const DomainId domain = activeDomain(now);
    const Cycle tE = turnEnd(now);
    const auto &off = sol_.offsets;

    auto eligible = [&](const MemRequest &r) {
        const bool w = r.type == ReqType::Write;
        // The whole transaction must fit before the turn end...
        if (now + (w ? footWrite_ : footRead_) > tE)
            return false;
        // ...and respect same-bank reuse against earlier slots.
        return bankFree(r.loc.rank, r.loc.bank,
                        now + (w ? off.actWrite : off.actRead));
    };

    mem::TransactionQueue &q = mc_.queue(domain);
    MemRequest *r = q.findOldest(eligible);
    if (!r) {
        idleSlots_.inc();
        return;
    }
    const bool w = r->type == ReqType::Write;
    PlannedOp op;
    op.write = w;
    op.actAt = now + (w ? off.actWrite : off.actRead);
    op.casAt = now + (w ? off.casWrite : off.casRead);
    op.req = q.take(r);
    op.req->firstCommand = op.actAt;
    served_.inc();
    reserveBank(op.req->loc.rank, op.req->loc.bank, op.actAt, op.casAt,
                w);
    plan(std::move(op));
}

void
TpScheduler::tick(Cycle now)
{
    if (now % params_.turnLength == 0)
        turns_.inc();
    // Slots are anchored to the turn start so every turn offers the
    // same deterministic issue opportunities.
    if ((now % params_.turnLength) % l_ == 0)
        decideSlot(now);
    applyUpTo(now); // ops this decide may have cycles == now
}

Cycle
TpScheduler::nextWakeCycle(Cycle now) const
{
    const Cycle next = now + 1;
    const Cycle turn = params_.turnLength;
    // Next in-turn slot; the turn boundary is itself a slot (and the
    // turn counter ticks there), so it caps the candidate.
    const Cycle turnStart = next / turn * turn;
    const Cycle inTurn = next - turnStart;
    Cycle wake = turnStart + (inTurn + l_ - 1) / l_ * l_;
    if (wake >= turnStart + turn)
        wake = turnStart + turn;
    return completionBound(wake, now);
}

void
TpScheduler::registerStats(StatGroup &group) const
{
    group.add("turns", &turns_, "TP turns elapsed");
    group.add("served", &served_, "transactions serviced");
    group.add("idle_slots", &idleSlots_,
              "turn slots with no eligible transaction");
}

template <class Self, class Ar>
void
TpScheduler::transfer(Self &self, Ar &a)
{
    a.section("tp");
    self.transferPlan(a);
    a.nested(self.turns_);
    a.nested(self.served_);
    a.nested(self.idleSlots_);
}

void
TpScheduler::saveState(Serializer &s) const
{
    transfer(*this, s);
}

void
TpScheduler::restoreState(Deserializer &d)
{
    transfer(*this, d);
}

} // namespace memsec::sched
