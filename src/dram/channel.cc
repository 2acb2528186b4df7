#include "dram/channel.hh"

#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::dram {

void
ChannelBuses::saveState(Serializer &s) const
{
    s.putU64(lastCmdCycle_);
    s.putU64(dataBusyUntil_);
    s.putU32(lastDataRank_);
    s.putU64(dataBusyCycles_);
    s.putU64(commandCount_);
}

void
ChannelBuses::restoreState(Deserializer &d)
{
    lastCmdCycle_ = d.getU64();
    dataBusyUntil_ = d.getU64();
    lastDataRank_ = d.getU32();
    dataBusyCycles_ = d.getU64();
    commandCount_ = d.getU64();
}

void
ChannelBuses::useCmdBus(Cycle t)
{
    panic_if(lastCmdCycle_ != kNoCycle && t < lastCmdCycle_,
             "command bus time went backwards: {} after {}", t,
             lastCmdCycle_);
    panic_if(!cmdBusFree(t), "command bus conflict at cycle {}", t);
    lastCmdCycle_ = t;
    ++commandCount_;
}

void
ChannelBuses::reserveData(Cycle start, unsigned rank)
{
    panic_if(!dataBusFree(start, rank),
             "data bus conflict: burst at {} (rank {}) but bus busy "
             "until {} (last rank {})",
             start, rank, dataBusyUntil_, lastDataRank_);
    dataBusyUntil_ = start + tp_.burst;
    lastDataRank_ = rank;
    dataBusyCycles_ += tp_.burst;
}

} // namespace memsec::dram
