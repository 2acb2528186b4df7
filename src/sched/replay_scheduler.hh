/**
 * @file
 * The planned-op pipeline shared by the fixed-service policies: the
 * FS family (FsScheduler, FsReorderedScheduler) and TP.
 *
 * Those policies decide a whole transaction at once. The decision
 * fixes both command cycles and, for FS-reordered, the cycle the
 * result is released to its client. Everything after the decision
 * lives here, once: the PlannedOp type, the planned-op deque, the
 * timestamp-sorted ReplayRing that is the only way these policies
 * issue ACT/CAS (under every sim.compiled mode), the completion rule,
 * the per-bank reuse books and the checkpoint layout of plan plus
 * books. A policy keeps only its decision logic (docs/PERF.md).
 */

#ifndef MEMSEC_SCHED_REPLAY_SCHEDULER_HH
#define MEMSEC_SCHED_REPLAY_SCHEDULER_HH

#include <deque>
#include <memory>
#include <vector>

#include "mem/request.hh"
#include "sched/scheduler.hh"
#include "util/logging.hh"

namespace memsec::sched {

/** One decided transaction, from its decision until its CAS applies. */
struct PlannedOp
{
    std::unique_ptr<mem::MemRequest> req; ///< null once the CAS applied
    bool write = false;
    bool dummy = false;
    bool suppressAct = false; ///< energy-only ACT (suppressed/boosted)
    bool suppressCas = false; ///< energy-only CAS (suppressed dummy)
    Cycle actAt = 0;
    Cycle casAt = 0;
    /**
     * When the request completes: kNoCycle means at the device's data
     * end; anything else is a fixed release cycle (FS-reordered's
     * en-masse read return at the interval end).
     */
    Cycle releaseAt = kNoCycle;
    bool actIssued = false;
};

/** One pending command occurrence in a ReplayRing. */
struct ReplayEvent
{
    Cycle at = 0;               ///< issue cycle
    Cycle completeAt = kNoCycle; ///< CAS of a client op: its completion
    PlannedOp *op = nullptr;    ///< planned op this belongs to
    bool cas = false;           ///< false = ACT, true = CAS
};

/**
 * Queue of ReplayEvents kept sorted by issue cycle. The storage grows
 * to the schedule's in-flight high-water mark and is reused after
 * that, so steady-state push/pop do not allocate; a burst beyond it
 * (slot-skew injection delays ops) grows the storage instead of
 * losing events.
 *
 * Op pointers must stay stable while queued; std::deque elements
 * (the planned-op queue) satisfy that under push_back / pop_front.
 */
class ReplayRing
{
  public:
    size_t size() const { return events_.size(); }
    bool empty() const { return events_.empty(); }

    /** Sorted insert (stable for equal cycles). */
    void push(const ReplayEvent &ev);

    const ReplayEvent &front() const
    {
        panic_if(events_.empty(), "ReplayRing::front on empty ring");
        return events_.front();
    }

    void pop()
    {
        panic_if(events_.empty(), "ReplayRing::pop on empty ring");
        events_.erase(events_.begin());
    }

    /** Earliest predicted completion over queued CAS events. */
    Cycle minCompletion() const;

    void clear() { events_.clear(); }

  private:
    std::vector<ReplayEvent> events_; ///< ascending by `at`
};

/**
 * A Scheduler that issues through planned ops. The derived policy
 * decides and calls plan(); this class applies the commands, completes
 * the requests, keeps the bank books and checkpoints both.
 */
class ReplayScheduler : public Scheduler
{
  public:
    bool compiledActive() const override { return true; }

    /**
     * Apply every queued command with cycle <= now in timestamp order
     * and retire the fully applied ops at the front of the plan. A CAS
     * completes its request at the device's data end, or at the op's
     * fixed release cycle; it panics if the device's data end is not
     * the planned one or a fixed release precedes it.
     */
    void applyUpTo(Cycle now) override;
    uint64_t compiledCommands() const override { return compiledCmds_; }

  protected:
    explicit ReplayScheduler(mem::MemoryController &mc);

    /** Take a decided op and queue its commands on the ring. */
    void plan(PlannedOp op);

    /**
     * The policy's next decision cycle, pulled in to the earliest
     * client-visible completion (queued commands apply lazily, so
     * only a completion forces an executed cycle between decisions)
     * and clamped to > now.
     */
    Cycle completionBound(Cycle decisionWake, Cycle now) const;

    /** True if a new ACT on (rank, bank) may be planned at actAt. */
    bool bankFree(unsigned rank, unsigned bank, Cycle actAt) const;

    /**
     * Record an op's bank-reuse horizon: the bank is free again once
     * both tRC from the ACT and the CAS's auto-precharge have elapsed.
     * The cycles are explicit because FS-reordered reserves at the
     * interval's worst-case position, not at the op's own slot.
     */
    void reserveBank(unsigned rank, unsigned bank, Cycle actAt,
                     Cycle casAt, bool write);

    const std::deque<PlannedOp> &planned() const { return planned_; }
    const ReplayRing &ring() const { return ring_; }

    /** Checkpoint the plan and the bank books, the layout shared by
     *  every replay policy; restoring rebuilds the derived ring. */
    void transferPlan(Serializer &s) const;
    void transferPlan(Deserializer &d);

  private:
    /** Layout behind transferPlan() (util/serialize.hh). */
    template <class Self, class Ar>
    static void transfer(Self &self, Ar &a);

    /** Device data end the op's CAS will report. */
    Cycle dataEnd(const PlannedOp &op) const
    {
        return op.casAt + (op.write ? writeDataDelta_ : readDataDelta_);
    }

    /** Queue the op's not-yet-applied ACT/CAS events. */
    void enqueueReplay(PlannedOp &op);

    std::deque<PlannedOp> planned_;
    /** Earliest cycle a new ACT may be planned per (rank, bank),
     *  covering planned-but-unapplied auto-precharges. */
    std::vector<Cycle> plannedBankFree_;

    /*
     * Replay state (docs/PERF.md). Derived: checkpoints serialize only
     * the plan, and the ring is rebuilt on restore, which keeps
     * checkpoint bytes identical across sim.compiled modes.
     */
    ReplayRing ring_;
    Cycle readDataDelta_ = 0;   ///< casAt -> read data-burst end
    Cycle writeDataDelta_ = 0;  ///< casAt -> write data-burst end
    uint64_t compiledCmds_ = 0; ///< kernel accounting, not digest
};

} // namespace memsec::sched

#endif // MEMSEC_SCHED_REPLAY_SCHEDULER_HH
