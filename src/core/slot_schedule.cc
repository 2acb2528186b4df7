#include "core/slot_schedule.hh"

#include "util/logging.hh"

namespace memsec::core {

SlotSchedule::SlotSchedule(const SlotOffsets &off, unsigned l,
                           const dram::TimingParams &tp,
                           const std::vector<unsigned> &weights,
                           unsigned groups)
    : off_(off), l_(l), lead_(off.lead()), burst_(tp.burst),
      groups_(groups)
{
    fatal_if(groups == 0, "bank group count must be >= 1");
    std::vector<unsigned> remaining = weights;
    bool any = true;
    while (any) {
        any = false;
        for (DomainId d = 0; d < remaining.size(); ++d) {
            if (remaining[d] > 0) {
                --remaining[d];
                table_.push_back(d);
                any = true;
            }
        }
    }
    fatal_if(table_.empty(), "slot table is empty");
    if (groups_ > 1 && table_.size() % groups_ == 0)
        table_.push_back(kPhantom);
}

SlotSchedule::SlotSchedule(const PipelineSolution &sol,
                           unsigned numDomains,
                           const dram::TimingParams &tp)
    : SlotSchedule(sol.offsets, sol.l, tp,
                   std::vector<unsigned>(numDomains, 1))
{
    fatal_if(!sol.feasible, "cannot schedule an infeasible pipeline");
}

SlotSchedule
SlotSchedule::withSpacing(unsigned l) const
{
    SlotSchedule s = *this;
    s.l_ = l;
    return s;
}

} // namespace memsec::core
