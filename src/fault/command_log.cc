#include "fault/command_log.hh"

#include <algorithm>
#include <sstream>

#include "util/serialize.hh"

namespace memsec::fault {

template <class Self, class Ar>
void
CommandLog::transfer(Self &self, Ar &a)
{
    a.section("cmdlog");
    a.u64(self.total_);
    size_t held = 0;
    a.seq(self.ring_, [&](auto &e) {
        // record() fills the ring to capacity, then overwrites.
        a.check(++held <= self.cap_, "command log larger than capacity");
        a.enumU8(e.cmd.type, dram::CmdType::PdExit, "command type byte");
        a.u32(e.cmd.rank);
        a.u32(e.cmd.bank);
        a.u32(e.cmd.row);
        a.u64(e.cmd.req);
        a.flag(e.cmd.suppressed);
        a.u64(e.cycle);
    });
    a.check(held == std::min<uint64_t>(self.total_, self.cap_),
            "command log size disagrees with its total");
}

template void CommandLog::transfer(const CommandLog &, Serializer &);
template void CommandLog::transfer(CommandLog &, Deserializer &);

CommandLog::CommandLog(size_t capacity) : cap_(capacity ? capacity : 1)
{
    ring_.reserve(cap_);
}

void
CommandLog::record(const dram::Command &cmd, Cycle t)
{
    if (ring_.size() < cap_) {
        ring_.push_back({cmd, t});
    } else {
        ring_[total_ % cap_] = {cmd, t};
    }
    ++total_;
}

size_t
CommandLog::size() const
{
    return ring_.size();
}

std::string
CommandLog::snapshot() const
{
    std::ostringstream os;
    os << "last " << ring_.size() << " of " << total_
       << " issued command(s):\n";
    // After wrap-around, the oldest entry sits at total_ % cap_.
    const size_t start = ring_.size() < cap_ ? 0 : total_ % cap_;
    for (size_t i = 0; i < ring_.size(); ++i) {
        const Entry &e = ring_[(start + i) % ring_.size()];
        os << "  @" << e.cycle << " " << e.cmd.toString() << "\n";
    }
    return os.str();
}

} // namespace memsec::fault
