#include "sched/fs.hh"

#include <algorithm>

#include "analysis/schedule_verifier.hh"
#include "fault/fault_injector.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::sched {

using mem::MemRequest;
using mem::ReqType;
using dram::CmdType;
using dram::Command;

const char *
fsModeName(FsMode m)
{
    switch (m) {
      case FsMode::RankPart: return "fs-rank";
      case FsMode::BankPart: return "fs-bank";
      case FsMode::NoPart: return "fs-nopart";
      case FsMode::TripleAlt: return "fs-triple";
    }
    return "???";
}

namespace {

core::PartitionLevel
levelOf(FsMode m)
{
    switch (m) {
      case FsMode::RankPart: return core::PartitionLevel::Rank;
      case FsMode::BankPart:
      case FsMode::TripleAlt: return core::PartitionLevel::Bank;
      case FsMode::NoPart: return core::PartitionLevel::None;
    }
    panic("bad FS mode");
}

core::PipelineSolution
solveFor(const dram::TimingParams &tp, const FsScheduler::Params &params)
{
    const core::PipelineSolver solver(tp);
    const core::PipelineSolution sol =
        params.pinRef ? solver.solve(params.ref, levelOf(params.mode))
                      : solver.solveBest(levelOf(params.mode));
    fatal_if(!sol.feasible, "no feasible FS pipeline for mode {}",
             fsModeName(params.mode));
    return sol;
}

/** Slots per domain per frame: the SLA weights, or one slot each. */
std::vector<unsigned>
weightsFor(const FsScheduler::Params &params, unsigned numDomains)
{
    if (params.slotWeights.empty())
        return std::vector<unsigned>(numDomains, 1);
    fatal_if(params.slotWeights.size() != numDomains,
             "slotWeights size {} != domains {}",
             params.slotWeights.size(), numDomains);
    return params.slotWeights;
}

} // namespace

FsScheduler::FsScheduler(mem::MemoryController &mc, const Params &params)
    : ReplayScheduler(mc), params_(params),
      sol_(solveFor(dram_.timing(), params)),
      frame_(sol_.offsets, sol_.l, dram_.timing(),
             weightsFor(params, mc.numDomains()),
             params.mode == FsMode::TripleAlt
                 ? core::PipelineSolver(dram_.timing())
                       .alternationFactor()
                 : 1)
{
    const unsigned n = mc.numDomains();
    fatal_if(params.mode == FsMode::TripleAlt &&
                 mc.addressMap().partition() != mem::Partition::None,
             "triple alternation is the no-OS-support design point; "
             "use an unpartitioned address map");
    fatal_if(params.powerDown && params.mode != FsMode::RankPart,
             "the power-down optimisation requires rank partitioning "
             "(a shared rank's idleness would leak other domains' "
             "state)");

    const auto &geo = dram_.geometry();
    lastRow_.assign(
        static_cast<size_t>(geo.ranksPerChannel) * geo.banksPerRank, ~0u);
    rankPlan_.assign(geo.ranksPerChannel, RankPlan{});
    rankDownUntil_.assign(geo.ranksPerChannel, 0);
    pdCreditCycles_.assign(geo.ranksPerChannel, 0);
    dummyRr_.assign(n, 0);
    for (DomainId d = 0; d < n; ++d)
        domainRng_.emplace_back(params.rngSeed * 0x9E3779B9u + d);

    if (params_.refresh) {
        const auto &tp = dram_.timing();
        // No slot may have commands or auto-precharge activity inside
        // the epoch: quiet-down begins one worst-case transaction
        // footprint before the REF burst.
        refreshMargin_ = tp.actToActWrA() + frame_.lead();
        // One REF command per rank back-to-back, then tRFC.
        refreshPause_ = dram_.numRanks() + tp.rfc;
        nextRefresh_ = tp.refi;
        fatal_if(tp.refi < refreshMargin_ + refreshPause_ + frameLength(),
                 "tREFI too short for an FS refresh epoch");
    }
}

std::string
FsScheduler::name() const
{
    return fsModeName(params_.mode);
}

bool
FsScheduler::enableCompiledReplay(const CompiledReplayOptions &opts)
{
    // Injected skew perturbs the very template the proof is about.
    if (opts.mode == CompiledMode::Off || injector_)
        return false;

    // Prove the template this scheduler issues from over its
    // hyperperiod, and its refresh epochs over the refresh
    // hyperperiod when refresh is on.
    analysis::VerifierConfig vcfg;
    vcfg.level = levelOf(params_.mode);
    vcfg.numRanks = dram_.numRanks();
    auto proven = [&](bool refresh) {
        vcfg.refresh = refresh;
        return analysis::ScheduleVerifier(dram_.timing(), frame_, vcfg)
            .verify(frame_.spacing())
            .ok;
    };
    return proven(false) && (!params_.refresh || proven(true));
}

bool
FsScheduler::rankFree(unsigned rank, Cycle actAt, Cycle casAt,
                      bool write) const
{
    const auto &tp = dram_.timing();
    const RankPlan &rp = rankPlan_[rank];
    if (actAt < rp.nextAct)
        return false;
    if (rp.acts.size() >= 4 && actAt < rp.acts.front() + tp.faw)
        return false;
    if (casAt < (write ? rp.nextWrite : rp.nextRead))
        return false;
    return true;
}

void
FsScheduler::reserveRank(unsigned rank, Cycle actAt, Cycle casAt,
                         bool write)
{
    const auto &tp = dram_.timing();
    RankPlan &rp = rankPlan_[rank];
    rp.nextAct = actAt + tp.rrd;
    rp.acts.push_back(actAt);
    while (rp.acts.size() > 4)
        rp.acts.pop_front();
    if (write) {
        rp.nextWrite = std::max(rp.nextWrite, casAt + tp.ccd);
        rp.nextRead = std::max(rp.nextRead, casAt + tp.wr2rd());
    } else {
        rp.nextRead = std::max(rp.nextRead, casAt + tp.ccd);
        rp.nextWrite = std::max(rp.nextWrite, casAt + tp.rd2wr());
    }
}

void
FsScheduler::planSlot(std::unique_ptr<MemRequest> req,
                      const core::SlotPlan &slot, bool dummy)
{
    PlannedOp op;
    op.write = slot.write;
    op.dummy = dummy;
    op.actAt = slot.actAt;
    op.casAt = slot.casAt;
    op.suppressCas = dummy && params_.suppressDummies;

    const unsigned rank = req->loc.rank;
    const unsigned bank = req->loc.bank;
    const unsigned nb = dram_.geometry().banksPerRank;
    unsigned &last = lastRow_[static_cast<size_t>(rank) * nb + bank];
    if (params_.rowBufferBoost && req->loc.row == last) {
        op.suppressAct = true;
        boostedActs_.inc();
    } else {
        op.suppressAct = op.suppressCas;
    }
    last = req->loc.row;

    reserveBank(rank, bank, op.actAt, op.casAt, op.write);
    reserveRank(rank, op.actAt, op.casAt, op.write);

    // Slot-skew injection: shift a real op's commands *after* the
    // reservations, so the planner's books still assume the nominal
    // template — exactly the kind of content-dependent timing drift
    // the noninterference audit exists to catch. Dummies are never
    // skewed: a fault that fires identically for every slot would
    // cancel out across co-runner sets.
    if (injector_ && !dummy) {
        if (const Cycle skew = injector_->slotSkew(op.actAt)) {
            op.actAt += skew;
            op.casAt += skew;
            skewedOps_.inc();
        }
        // Cross-coupling injection: the op drifts only when *other*
        // domains have work queued, wiring foreign backlog straight
        // into this domain's command timing. The scan below is the
        // exact cross-domain flow isolint forbids in decision paths —
        // it exists so the noninterference certifier can prove it
        // refuses a certificate when such a flow is armed.
        uint64_t foreign = 0;
        for (DomainId d = 0; d < mc_.numDomains(); ++d) {
            if (d != req->domain)
                foreign += mc_.queue(d).size();
        }
        if (const Cycle skew =
                injector_->couplingSkew(op.actAt, foreign)) {
            op.actAt += skew;
            op.casAt += skew;
            skewedOps_.inc();
        }
    }

    op.req = std::move(req);
    plan(std::move(op));
}

void
FsScheduler::frameBoundary(uint64_t frame, Cycle now)
{
    if (!params_.powerDown)
        return;
    const auto &tp = dram_.timing();
    const Cycle q = frameLength();
    const Cycle frameEnd = (frame + 1) * q + frame_.lead();
    if (q <= tp.xp + tp.cke)
        return;

    // A rank whose owning domains have nothing queued at the frame
    // start is powered down for the whole frame (Section 5.2, energy
    // optimisation 3). Under rank partitioning this depends only on
    // the owner's own state, so it leaks nothing.
    std::vector<bool> used(dram_.numRanks(), false);
    for (DomainId d = 0; d < mc_.numDomains(); ++d) {
        const mem::TransactionQueue &qd = mc_.queue(d);
        for (size_t i = 0; i < qd.size(); ++i)
            used[qd.at(i)->loc.rank] = true;
        for (const auto &p : mc_.prefetchQueue(d))
            used[p->loc.rank] = true;
    }
    for (const auto &op : planned()) {
        if (op.req)
            used[op.req->loc.rank] = true;
    }
    for (unsigned r = 0; r < dram_.numRanks(); ++r) {
        if (!used[r] && rankDownUntil_[r] <= now) {
            rankDownUntil_[r] = frameEnd;
            pdCreditCycles_[r] += q - tp.xp - tp.cke;
        }
    }
}

void
FsScheduler::decideSlot(uint64_t slot, Cycle now)
{
    const uint64_t frame = slot / frame_.slotsPerFrame();
    if (slot % frame_.slotsPerFrame() == 0)
        frameBoundary(frame, now);

    if (nextRefresh_ != kNoCycle) {
        // The whole-epoch window [nextRefresh_ - margin, +pause) is a
        // deterministic, domain-independent blackout.
        // One-sided: the epoch rolls over only after its pause, so
        // every slot decided during it sees the armed blackout.
        if (frame_.refCycle(slot) + refreshMargin_ > nextRefresh_) {
            skippedSlots_.inc();
            return;
        }
    }

    const DomainId domain = frame_.domainOf(slot);
    if (domain == core::SlotSchedule::kPhantom) {
        skippedSlots_.inc();
        return;
    }

    const unsigned groups = frame_.groups();
    const unsigned group = frame_.groupOf(slot);
    const core::SlotPlan read = frame_.plan(slot, false);
    const core::SlotPlan write = frame_.plan(slot, true);
    auto eligible = [&](const MemRequest &r) {
        if (r.loc.bank % groups != group)
            return false;
        const core::SlotPlan &p =
            r.type == ReqType::Write ? write : read;
        if (rankDownUntil_[r.loc.rank] > now)
            return false;
        return bankFree(r.loc.rank, r.loc.bank, p.actAt) &&
               rankFree(r.loc.rank, p.actAt, p.casAt, p.write);
    };

    // 1. A real transaction from this domain's queue, oldest first.
    mem::TransactionQueue &q = mc_.queue(domain);
    if (MemRequest *r = q.findOldest(eligible)) {
        if (r != q.head())
            hazardDeferrals_.inc();
        const core::SlotPlan &p =
            r->type == ReqType::Write ? write : read;
        auto owned = q.take(r);
        owned->firstCommand = p.actAt;
        realOps_.inc();
        planSlot(std::move(owned), p, false);
        return;
    }
    if (!q.empty())
        hazardDeferrals_.inc();

    // 2. A prefetch, if the optimisation is enabled (Section 5.2).
    if (params_.prefetchInDummies) {
        auto &pq = mc_.prefetchQueue(domain);
        for (auto it = pq.begin(); it != pq.end(); ++it) {
            if (eligible(**it)) {
                auto owned = std::move(*it);
                pq.erase(it);
                owned->firstCommand = read.actAt;
                prefetchOps_.inc();
                planSlot(std::move(owned), read, false);
                return;
            }
        }
    }

    // 3. A dummy read to an idle bank the domain owns — or nothing at
    //    all if the rank is powered down for this frame.
    const auto &ranks = mc_.addressMap().ranksOf(domain);
    const auto &banks = mc_.addressMap().banksOf(domain);
    const size_t combos = ranks.size() * banks.size();
    for (size_t tries = 0; tries < combos; ++tries) {
        const size_t cursor = (dummyRr_[domain] + tries) % combos;
        const unsigned bank = banks[cursor % banks.size()];
        const unsigned rank = ranks[cursor / banks.size()];
        if (bank % groups != group)
            continue;
        if (rankDownUntil_[rank] > now) {
            // Powered-down rank: the slot is deliberately left empty.
            skippedSlots_.inc();
            return;
        }
        if (!bankFree(rank, bank, read.actAt) ||
            !rankFree(rank, read.actAt, read.casAt, false))
            continue;
        dummyRr_[domain] = cursor + 1;
        auto dummy = mc_.acquireRequest();
        dummy->type = ReqType::Dummy;
        dummy->domain = domain;
        dummy->arrival = now;
        dummy->loc.rank = rank;
        dummy->loc.bank = bank;
        dummy->loc.row = params_.rowBufferBoost
                             ? lastRow_[static_cast<size_t>(rank) *
                                            dram_.geometry().banksPerRank +
                                        bank]
                             : static_cast<unsigned>(
                                   domainRng_[domain].below(
                                       dram_.geometry().rowsPerBank));
        if (dummy->loc.row == ~0u)
            dummy->loc.row = 0;
        dummyOps_.inc();
        mc_.noteDummy();
        planSlot(std::move(dummy), read, true);
        return;
    }
    // Only reachable at very low thread counts, where rank-level
    // turnaround windows can exclude every placement; the slot is
    // deterministically skipped.
    skippedSlots_.inc();
}

void
FsScheduler::tick(Cycle now)
{
    if (nextRefresh_ != kNoCycle && now >= nextRefresh_) {
        // Issue one REF per cycle until every rank is refreshed; the
        // epoch only rolls over once the last rank's tRFC elapsed, so
        // the slot blackout below stays armed throughout.
        if (refreshRankCursor_ < dram_.numRanks()) {
            dram_.issue(Command{CmdType::Ref, refreshRankCursor_, 0, 0,
                                0, false},
                        now);
            ++refreshRankCursor_;
            return;
        }
        if (now >= nextRefresh_ + refreshPause_) {
            nextRefresh_ += dram_.timing().refi;
            refreshRankCursor_ = 0;
        }
    }
    const unsigned l = frame_.spacing();
    if (now % l == 0)
        decideSlot(now / l, now);
    applyUpTo(now); // ops this decide may have cycles == now
}

Cycle
FsScheduler::nextWakeCycle(Cycle now) const
{
    const Cycle next = now + 1;
    const unsigned l = frame_.spacing();
    // Every multiple of l is a slot decision, even when it only
    // counts a blacked-out, phantom or powered-down slot.
    Cycle wake = (next + l - 1) / l * l;
    if (nextRefresh_ != kNoCycle) {
        if (next >= nextRefresh_) {
            // Mid-epoch: the REF burst issues one command per cycle,
            // and the epoch rollover must happen at its exact cycle
            // (a slot decided against a stale nextRefresh_ would see
            // the blackout armed when the naive loop would not).
            if (refreshRankCursor_ < dram_.numRanks())
                return next;
            wake = std::min(wake, nextRefresh_ + refreshPause_);
        } else {
            wake = std::min(wake, nextRefresh_);
        }
    }
    return completionBound(wake, now);
}

void
FsScheduler::finalize(Cycle now)
{
    (void)now;
    // Move power-down credit cycles from precharge standby to
    // power-down in the energy books (the commands themselves were
    // never simulated; Section 5.2 argues the command bus has free
    // cycles for PDE/PDX in every interval).
    for (unsigned r = 0; r < dram_.numRanks(); ++r) {
        auto &e = dram_.rank(r).energy();
        const uint64_t credit =
            std::min(pdCreditCycles_[r], e.cyclesPrecharge);
        e.cyclesPrecharge -= credit;
        e.cyclesPowerDown += credit;
        pdCreditCycles_[r] = 0;
    }
}

void
FsScheduler::registerStats(StatGroup &group) const
{
    group.add("real_ops", &realOps_, "slots serving real transactions");
    group.add("dummy_ops", &dummyOps_, "slots serving dummy operations");
    group.add("prefetch_ops", &prefetchOps_,
              "slots serving prefetch operations");
    group.add("skipped_slots", &skippedSlots_,
              "phantom or powered-down slots");
    group.add("hazard_deferrals", &hazardDeferrals_,
              "head-of-queue passed over for a safe transaction");
    group.add("boosted_acts", &boostedActs_,
              "activates suppressed by the row-buffer boost");
    group.add("skewed_ops", &skewedOps_,
              "operations shifted by slot-skew fault injection");
    group.addFormula(
        "dummy_fraction",
        [this] {
            const double total = static_cast<double>(
                realOps_.value() + dummyOps_.value() +
                prefetchOps_.value());
            return total > 0 ? dummyOps_.value() / total : 0.0;
        },
        "fraction of issued slots that were dummies");
}

template <class Self, class Ar>
void
FsScheduler::transfer(Self &self, Ar &a)
{
    const auto u64 = [&](auto &v) { a.u64(v); };
    a.section("fs");
    self.transferPlan(a);
    a.fixed(self.rankPlan_, "rank plan count mismatch", [&](auto &rp) {
        a.u64(rp.nextRead);
        a.u64(rp.nextWrite);
        a.u64(rp.nextAct);
        a.seq(rp.acts, u64);
    });
    a.fixed(self.lastRow_, "last-row table size mismatch",
            [&](auto &row) { a.u32(row); });
    a.fixed(self.domainRng_, "domain RNG count mismatch",
            [&](auto &rng) { a.nested(rng); });
    a.fixed(self.dummyRr_, "dummy cursor count mismatch", u64);
    a.fixed(self.rankDownUntil_, "rank power-down count mismatch", u64);
    a.fixed(self.pdCreditCycles_, "power-down credit count mismatch",
            u64);
    a.u64(self.nextRefresh_);
    a.u32(self.refreshRankCursor_);
    a.nested(self.realOps_);
    a.nested(self.dummyOps_);
    a.nested(self.prefetchOps_);
    a.nested(self.skippedSlots_);
    a.nested(self.hazardDeferrals_);
    a.nested(self.boostedActs_);
    a.nested(self.skewedOps_);
}

void
FsScheduler::saveState(Serializer &s) const
{
    transfer(*this, s);
}

void
FsScheduler::restoreState(Deserializer &d)
{
    transfer(*this, d);
}

} // namespace memsec::sched
