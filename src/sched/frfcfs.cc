#include "sched/frfcfs.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::sched {

using mem::MemRequest;
using mem::ReqType;
using dram::CmdType;
using dram::Command;

FrFcfsEngine::FrFcfsEngine(mem::MemoryController &mc, const Options &opt)
    : mc_(mc), dram_(mc.dram()), opt_(opt), scan_(mc.numDomains()),
      usefulRowStamp_(static_cast<size_t>(dram_.numRanks()) *
                      dram_.geometry().banksPerRank),
      banksPerRank_(dram_.geometry().banksPerRank)
{
}

void
FrFcfsEngine::updateDrainMode(size_t reads, size_t writes)
{
    if (drainingWrites_) {
        if (writes <= opt_.writeLoWatermark)
            drainingWrites_ = false;
    } else if (writes >= opt_.writeHiWatermark ||
               (reads == 0 && writes > 0)) {
        drainingWrites_ = true;
    }
}

bool
FrFcfsEngine::tick(Cycle now, const std::vector<DomainId> &domains,
                   unsigned avoidRank)
{
    // One pass over the domains fetches each queue once, for both the
    // drain-mode totals and the candidate scan below.
    size_t reads = 0;
    size_t writes = 0;
    size_t nq = 0;
    for (DomainId d : domains) {
        mem::TransactionQueue &q = mc_.queue(d);
        reads += q.readCount();
        writes += q.writeCount();
        scan_[nq++] = &q;
    }
    updateDrainMode(reads, writes);
    const bool wantWrites = drainingWrites_;

    // Single pass over the queues: find the oldest ready row-hit CAS,
    // the oldest ACT for a closed bank, and the oldest PRE candidate
    // for a conflicting open row. Also stamp which open rows still
    // have pending hits so PRE never closes a useful row.
    MemRequest *casCand = nullptr;
    MemRequest *actCand = nullptr;
    MemRequest *preCand = nullptr;
    const uint64_t stamp = ++tickStamp_;

    auto older = [](const MemRequest *a, const MemRequest *b) {
        return !b || a->arrival < b->arrival ||
               (a->arrival == b->arrival && a->id < b->id);
    };
    // Rank affinity: back-to-back bursts from one rank are gapless,
    // while switching ranks costs tRTRS — prefer CAS candidates on
    // the rank that last owned the data bus.
    const unsigned affineRank = dram_.buses().lastDataRank();
    auto betterCas = [&](const MemRequest *a, const MemRequest *b) {
        if (!b)
            return true;
        const bool aAff = a->loc.rank == affineRank;
        const bool bAff = b->loc.rank == affineRank;
        if (aAff != bAff)
            return aAff;
        return older(a, b);
    };
    // Legality comes from the device's own rule set; it has no side
    // effects, so it is asked only of entries that would win.
    auto legal = [&](CmdType type, const MemRequest *r, unsigned row) {
        return dram_.blockingRule(type, r->loc.rank, r->loc.bank, row,
                                  now) == nullptr;
    };

    for (size_t qi = 0; qi < nq; ++qi) {
        for (const auto &entry : *scan_[qi]) {
            MemRequest *r = entry.get();
            const bool isWrite = r->type == ReqType::Write;
            if (isWrite != wantWrites)
                continue;
            if (r->loc.rank == avoidRank)
                continue;
            const dram::Bank &bk =
                dram_.rank(r->loc.rank).bank(r->loc.bank);
            if (bk.isOpen() && bk.openRow() == r->loc.row) {
                usefulRowStamp_[r->loc.rank * banksPerRank_ +
                                r->loc.bank] = stamp;
                if (betterCas(r, casCand) &&
                    legal(isWrite ? CmdType::Wr : CmdType::Rd, r,
                          r->loc.row))
                    casCand = r;
            } else if (!bk.isOpen()) {
                if (older(r, actCand) && legal(CmdType::Act, r, r->loc.row))
                    actCand = r;
            } else {
                if (older(r, preCand) && legal(CmdType::Pre, r, bk.openRow()))
                    preCand = r;
            }
        }
    }

    if (casCand) {
        issueFor(casCand, true, now);
        return true;
    }
    if (actCand) {
        issueFor(actCand, false, now);
        return true;
    }
    // Only close a row nobody still wants.
    if (preCand && usefulRowStamp_[preCand->loc.rank * banksPerRank_ +
                                   preCand->loc.bank] != stamp) {
        const dram::Bank &bk =
            dram_.rank(preCand->loc.rank).bank(preCand->loc.bank);
        Command pre{CmdType::Pre, preCand->loc.rank, preCand->loc.bank,
                    bk.openRow(), preCand->id, false};
        dram_.issue(pre, now);
        ++rowConflicts_;
        return true;
    }

    if (opt_.allowPrefetchPromote) {
        // Update the utilisation window every 1024 cycles.
        if (now - utilWindowStart_ >= 1024) {
            const uint64_t busy = dram_.buses().dataBusyCycles();
            prefetchUtilOk_ =
                busy - utilWindowBusy_ < (now - utilWindowStart_) / 2;
            utilWindowBusy_ = busy;
            utilWindowStart_ = now;
        }
        if (prefetchUtilOk_)
            promotePrefetches(domains, now);
    }
    return false;
}

void
FrFcfsEngine::issueFor(MemRequest *req, bool isCas, Cycle now)
{
    if (!isCas) {
        Command act{CmdType::Act, req->loc.rank, req->loc.bank,
                    req->loc.row, req->id, false};
        dram_.issue(act, now);
        if (req->firstCommand == kNoCycle)
            req->firstCommand = now;
        return;
    }

    const bool isWrite = req->type == ReqType::Write;
    Command cas{isWrite ? CmdType::Wr : CmdType::Rd, req->loc.rank,
                req->loc.bank, req->loc.row, req->id, false};
    const dram::IssueResult res = dram_.issue(cas, now);
    if (req->firstCommand == kNoCycle) {
        req->firstCommand = now;
        ++rowHits_;
    } else {
        ++rowMisses_;
    }
    mc_.noteBurst(false);
    auto owned = mc_.queue(req->domain).take(req);
    mc_.finishRequest(std::move(owned), res.dataEnd);
}

void
FrFcfsEngine::promotePrefetches(const std::vector<DomainId> &domains,
                                Cycle now)
{
    (void)now;
    for (DomainId d : domains) {
        auto &pq = mc_.prefetchQueue(d);
        if (pq.empty())
            continue;
        mem::TransactionQueue &q = mc_.queue(d);
        // Throttle: prefetches only ride along when the domain has
        // little demand waiting, so they never add queueing delay.
        if (q.readCount() > 2)
            continue;
        q.push(std::move(pq.front()));
        pq.pop_front();
    }
}

FrFcfsScheduler::FrFcfsScheduler(mem::MemoryController &mc,
                                 bool enablePrefetch, bool refresh)
    : Scheduler(mc),
      engine_(mc, FrFcfsEngine::Options{24, 8, enablePrefetch}),
      refreshEnabled_(refresh)
{
    for (DomainId d = 0; d < mc.numDomains(); ++d)
        allDomains_.push_back(d);
    // Stagger the per-rank refresh deadlines across tREFI.
    const auto &tp = dram_.timing();
    for (unsigned r = 0; r < dram_.numRanks(); ++r)
        nextRefresh_.push_back(tp.refi * (r + 1) / dram_.numRanks());
}

bool
FrFcfsScheduler::serviceRefresh(Cycle now, unsigned &avoidRank)
{
    for (unsigned r = 0; r < dram_.numRanks(); ++r) {
        if (now < nextRefresh_[r])
            continue;
        Command ref{CmdType::Ref, r, 0, 0, 0, false};
        if (dram_.canIssue(ref, now)) {
            dram_.issue(ref, now);
            nextRefresh_[r] += dram_.timing().refi;
            refreshes_.inc();
            return true;
        }
        // Drain: close this rank's open rows so REF becomes legal.
        avoidRank = r;
        for (unsigned b = 0; b < dram_.rank(r).numBanks(); ++b) {
            const dram::Bank &bk = dram_.rank(r).bank(b);
            if (!bk.isOpen())
                continue;
            Command pre{CmdType::Pre, r, b, bk.openRow(), 0, false};
            if (dram_.canIssue(pre, now)) {
                dram_.issue(pre, now);
                return true;
            }
        }
        return false; // waiting on tRAS/tWR; rank stays avoided
    }
    return false;
}

void
FrFcfsScheduler::tick(Cycle now)
{
    unsigned avoidRank = FrFcfsEngine::kNoRank;
    if (refreshEnabled_ && serviceRefresh(now, avoidRank))
        return;
    engine_.tick(now, allDomains_, avoidRank);
}

Cycle
FrFcfsScheduler::nextWakeCycle(Cycle now) const
{
    const Cycle next = now + 1;
    // Pending work anywhere needs per-cycle FR-FCFS decisions.
    for (DomainId d : allDomains_) {
        if (!mc_.queue(d).empty())
            return next;
    }
    // Prefetch promotion mutates the utilisation window every 1024
    // cycles and can move prefetch-queue entries into the demand
    // queues even while those are empty: never skip.
    if (engine_.promotesPrefetches())
        return next;
    // An armed drain mode settles (to false) on the next idle tick;
    // skipping that tick would leave it armed when a write arrives.
    if (engine_.drainingWrites())
        return next;
    Cycle wake = kNoCycle;
    if (refreshEnabled_) {
        for (const Cycle r : nextRefresh_) {
            if (next >= r)
                return next; // refresh due (or draining towards it)
            wake = std::min(wake, r);
        }
    }
    return std::max(wake, next);
}

void
FrFcfsScheduler::registerStats(StatGroup &group) const
{
    group.addFormula(
        "row_hits",
        [this] { return static_cast<double>(engine_.rowHits()); },
        "CAS issued to an already-open row");
    group.addFormula(
        "row_misses",
        [this] { return static_cast<double>(engine_.rowMisses()); },
        "CAS that needed its own activate");
    group.addFormula(
        "row_conflicts",
        [this] { return static_cast<double>(engine_.rowConflicts()); },
        "precharges forced by a conflicting open row");
}

template <class Self, class Ar>
void
FrFcfsEngine::transfer(Self &self, Ar &a)
{
    a.section("frfcfs-engine");
    a.flag(self.drainingWrites_);
    a.u64(self.utilWindowStart_);
    a.u64(self.utilWindowBusy_);
    a.flag(self.prefetchUtilOk_);
    a.u64(self.rowHits_);
    a.u64(self.rowMisses_);
    a.u64(self.rowConflicts_);
}

template void FrFcfsEngine::transfer(const FrFcfsEngine &, Serializer &);
template void FrFcfsEngine::transfer(FrFcfsEngine &, Deserializer &);

template <class Self, class Ar>
void
FrFcfsScheduler::transfer(Self &self, Ar &a)
{
    a.section("frfcfs");
    a.nested(self.engine_);
    a.fixed(self.nextRefresh_, "refresh schedule size mismatch",
            [&](auto &c) { a.u64(c); });
    a.nested(self.refreshes_);
}

void
FrFcfsScheduler::saveState(Serializer &s) const
{
    transfer(*this, s);
}

void
FrFcfsScheduler::restoreState(Deserializer &d)
{
    transfer(*this, d);
}

} // namespace memsec::sched
