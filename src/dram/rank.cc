#include "dram/rank.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::dram {

template <class Self, class Ar>
void
Rank::transfer(Self &self, Ar &a)
{
    a.section("rank");
    for (auto &b : self.banks_)
        a.nested(b);
    a.u64(self.nextActRrd_);
    a.seq(self.actWindow_, [&](auto &t) { a.u64(t); });
    a.u64(self.nextRead_);
    a.u64(self.nextWrite_);
    a.u64(self.refreshEnd_);
    a.flag(self.poweredDown_);
    a.u64(self.pdEnteredAt_);
    a.u64(self.pdExitReadyAt_);
    auto &e = self.energy_;
    a.u64(e.activates);
    a.u64(e.reads);
    a.u64(e.writes);
    a.u64(e.suppressedActs);
    a.u64(e.suppressedCas);
    a.u64(e.refreshes);
    a.u64(e.cyclesActive);
    a.u64(e.cyclesPrecharge);
    a.u64(e.cyclesPowerDown);
    a.u64(e.cyclesRefreshing);
    if constexpr (Ar::kLoading) {
        self.openBanks_ = 0;
        for (const Bank &b : self.banks_)
            self.openBanks_ += b.isOpen();
    }
}

template void Rank::transfer(const Rank &, Serializer &);
template void Rank::transfer(Rank &, Deserializer &);

Rank::Rank(unsigned banks, const TimingParams &tp)
    : tp_(tp), banks_(banks)
{
}

void
Rank::recordActivate(Cycle t, bool suppressed)
{
    panic_if(t < nextActRankLimit(),
             "rank ACT at {} violates tRRD/tFAW limit {}", t,
             nextActRankLimit());
    nextActRrd_ = t + tp_.rrd;
    actWindow_.push(t);
    if (suppressed)
        ++energy_.suppressedActs;
    else
        ++energy_.activates;
}

void
Rank::recordRead(Cycle t)
{
    panic_if(t < nextRead_, "rank RD at {} before nextRead {}", t,
             nextRead_);
    nextRead_ = t + tp_.ccd;
    nextWrite_ = std::max(nextWrite_, t + tp_.rd2wr());
}

void
Rank::recordWrite(Cycle t)
{
    panic_if(t < nextWrite_, "rank WR at {} before nextWrite {}", t,
             nextWrite_);
    nextWrite_ = t + tp_.ccd;
    nextRead_ = std::max(nextRead_, t + tp_.wr2rd());
}

template <typename Op>
void
Rank::mutateBank(unsigned b, Op &&op)
{
    Bank &bk = banks_.at(b);
    const bool wasOpen = bk.isOpen();
    op(bk);
    if (bk.isOpen() != wasOpen)
        wasOpen ? --openBanks_ : ++openBanks_;
}

void
Rank::activateBank(unsigned b, Cycle t, unsigned row)
{
    mutateBank(b, [&](Bank &bk) { bk.doActivate(t, row, tp_); });
}

void
Rank::readBank(unsigned b, Cycle t, bool autoPre)
{
    mutateBank(b, [&](Bank &bk) { bk.doRead(t, autoPre, tp_); });
}

void
Rank::writeBank(unsigned b, Cycle t, bool autoPre)
{
    mutateBank(b, [&](Bank &bk) { bk.doWrite(t, autoPre, tp_); });
}

void
Rank::prechargeBank(unsigned b, Cycle t)
{
    mutateBank(b, [&](Bank &bk) { bk.doPrecharge(t, tp_); });
}

bool
Rank::allBanksIdleBy(Cycle t) const
{
    for (const auto &b : banks_) {
        if (b.isOpen() || b.nextAct() > t)
            return false;
    }
    return true;
}

void
Rank::startRefresh(Cycle t)
{
    panic_if(anyBankOpen(), "REF with open rows");
    panic_if(poweredDown_, "REF while powered down");
    refreshEnd_ = t + tp_.rfc;
    for (auto &b : banks_)
        b.blockUntil(refreshEnd_);
    nextRead_ = std::max(nextRead_, refreshEnd_);
    nextWrite_ = std::max(nextWrite_, refreshEnd_);
    nextActRrd_ = std::max(nextActRrd_, refreshEnd_);
    ++energy_.refreshes;
}

void
Rank::enterPowerDown(Cycle t)
{
    panic_if(anyBankOpen(), "precharge power-down with open rows");
    panic_if(poweredDown_, "PDE while already powered down");
    panic_if(t < refreshEnd_, "PDE during refresh");
    panic_if(t < pdExitReadyAt_, "PDE before tXP after the last exit");
    poweredDown_ = true;
    pdEnteredAt_ = t;
}

void
Rank::exitPowerDown(Cycle t)
{
    panic_if(!poweredDown_, "PDX while not powered down");
    panic_if(t < earliestPdExit(),
             "PDX at {} before minimum residency end {}", t,
             earliestPdExit());
    poweredDown_ = false;
    pdExitReadyAt_ = t + tp_.xp;
    const Cycle ready = t + tp_.xp;
    for (auto &b : banks_)
        b.blockUntil(ready);
    nextRead_ = std::max(nextRead_, ready);
    nextWrite_ = std::max(nextWrite_, ready);
    nextActRrd_ = std::max(nextActRrd_, ready);
}

PowerState
Rank::powerState(Cycle now) const
{
    if (poweredDown_)
        return PowerState::PowerDown;
    if (now < refreshEnd_)
        return PowerState::Refreshing;
    return anyBankOpen() ? PowerState::ActiveStandby
                         : PowerState::PrechargeStandby;
}

void
Rank::accountEnergySpan(Cycle from, Cycle to)
{
    uint64_t span = to - from;
    if (poweredDown_) {
        energy_.cyclesPowerDown += span;
        return;
    }
    if (from < refreshEnd_) {
        const uint64_t refreshing =
            std::min<Cycle>(to, refreshEnd_) - from;
        energy_.cyclesRefreshing += refreshing;
        span -= refreshing;
    }
    if (span == 0)
        return;
    if (anyBankOpen())
        energy_.cyclesActive += span;
    else
        energy_.cyclesPrecharge += span;
}

Cycle
Rank::energyCursor() const
{
    return energy_.cyclesActive + energy_.cyclesPrecharge +
           energy_.cyclesPowerDown + energy_.cyclesRefreshing;
}

void
Rank::settleEnergy(Cycle to)
{
    const Cycle from = energyCursor();
    panic_if(to < from, "energy settled to {} but already accounted to {}",
             to, from);
    accountEnergySpan(from, to);
}

} // namespace memsec::dram
