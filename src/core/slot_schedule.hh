/**
 * @file
 * The FS slot template: the one description of a fixed-service frame.
 *
 * A frame is a table of slots spaced l cycles apart. SlotSchedule owns
 * that table (the SLA-weight interleave of domains plus the phantom
 * pad that keeps triple alternation's group rotation fair), the
 * bank-group lane of each slot, the lead that keeps every command
 * cycle non-negative, and each slot's ACT/CAS/data cycles.
 * FsScheduler issues from it, analysis::ScheduleVerifier proves it
 * conflict-free over a hyperperiod, and tab_solver and
 * pipeline_explorer draw it.
 */

#ifndef MEMSEC_CORE_SLOT_SCHEDULE_HH
#define MEMSEC_CORE_SLOT_SCHEDULE_HH

#include <vector>

#include "core/pipeline_solver.hh"
#include "sim/types.hh"

namespace memsec::core {

/** The command footprint of one slot, in absolute cycles. */
struct SlotPlan
{
    uint64_t slot = 0;
    DomainId domain = 0;
    bool write = false;
    Cycle refCycle = 0;
    Cycle actAt = 0;
    Cycle casAt = 0;
    Cycle dataStart = 0;
    Cycle dataEnd = 0;
};

/** One FS frame: slot table, group lanes and per-slot command cycles. */
class SlotSchedule
{
  public:
    /** Domain of a phantom pad slot: never decided, issues nothing. */
    static constexpr DomainId kPhantom = ~0u;

    /**
     * A frame of weights[d] slots for each domain d, interleaved
     * round-robin, at slot spacing l. With groups > 1 (triple
     * alternation) slot s may only touch banks of lane s % groups, and
     * a phantom slot pads the frame when its length is a multiple of
     * the group count, so that every domain visits every lane. The
     * spacing need not be feasible: the verifier builds templates at
     * every candidate l.
     */
    SlotSchedule(const SlotOffsets &off, unsigned l,
                 const dram::TimingParams &tp,
                 const std::vector<unsigned> &weights,
                 unsigned groups = 1);

    /** The paper's frame for a solved pipeline: one slot per domain. */
    SlotSchedule(const PipelineSolution &sol, unsigned numDomains,
                 const dram::TimingParams &tp);

    /** The same frame at slot spacing l. */
    SlotSchedule withSpacing(unsigned l) const;

    /** Slot spacing l. */
    unsigned spacing() const { return l_; }

    /** Cycles by which commands may precede the slot reference. */
    Cycle lead() const { return lead_; }

    /** Slots per frame, a phantom pad included. */
    unsigned slotsPerFrame() const
    {
        return static_cast<unsigned>(table_.size());
    }

    /** Frame length Q = slots per frame * l. */
    Cycle frameLength() const { return Cycle{slotsPerFrame()} * l_; }

    /** Bank-group lanes (1 unless triple alternation). */
    unsigned groups() const { return groups_; }

    const SlotOffsets &offsets() const { return off_; }

    /** Domain served by slot s, or kPhantom for the pad slot. */
    DomainId domainOf(uint64_t slot) const
    {
        return table_[slot % table_.size()];
    }

    bool phantom(uint64_t slot) const { return domainOf(slot) == kPhantom; }

    /** Bank-group lane of slot s. */
    unsigned groupOf(uint64_t slot) const
    {
        return static_cast<unsigned>(slot % groups_);
    }

    /** Slot reference cycle: the decision cycle s * l plus the lead. */
    Cycle refCycle(uint64_t slot) const { return slot * l_ + lead_; }

    /** Concrete plan for slot s with the given transaction type. */
    SlotPlan
    plan(uint64_t slot, bool write) const
    {
        SlotPlan p;
        p.slot = slot;
        p.domain = domainOf(slot);
        p.write = write;
        p.refCycle = refCycle(slot);
        p.actAt = p.refCycle + (write ? off_.actWrite : off_.actRead);
        p.casAt = p.refCycle + (write ? off_.casWrite : off_.casRead);
        p.dataStart =
            p.refCycle + (write ? off_.dataWrite : off_.dataRead);
        p.dataEnd = p.dataStart + burst_;
        return p;
    }

  private:
    SlotOffsets off_;
    unsigned l_ = 0;
    Cycle lead_ = 0;
    Cycle burst_ = 0;
    unsigned groups_ = 1;
    std::vector<DomainId> table_; ///< slot index -> domain (or kPhantom)
};

} // namespace memsec::core

#endif // MEMSEC_CORE_SLOT_SCHEDULE_HH
