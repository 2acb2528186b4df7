/**
 * @file
 * Precompiled slot tables and the command replay ring of the
 * fixed-service schedulers.
 *
 * The paper's central observation — a fixed service schedule is a
 * *fixed per-cycle template over a known hyperperiod* — means an FS/TP
 * run does not need to rediscover its command timing cycle by cycle.
 * This file holds the pieces that exploit that (docs/PERF.md):
 *
 *  - CompiledSchedule / CompiledSlot: one frame of the template,
 *    flattened to per-slot command-cycle deltas. Emitted by
 *    analysis::ScheduleVerifier::compile(), which first re-proves the
 *    template conflict-free over the hyperperiod, so a table is only
 *    ever produced from a verified schedule. FsScheduler checks its
 *    own template against it before sim.compiled=on may skip the
 *    TimingChecker.
 *  - ReplayRing: a timestamp-sorted queue of pending command
 *    occurrences. The FS family and TP enqueue both commands of an
 *    operation when they decide it, and the controller applies them
 *    in global timestamp order (applyUpTo), so this ring is the only
 *    way those policies issue ACT/CAS — under every sim.compiled mode.
 *
 * sim.compiled decides only how much of that stream is audited: the
 * ring, the wake hints and the energy books are the same in all three
 * modes. The ring is derived state: checkpoints serialize only the
 * schedulers' planned-op deques and the ring is rebuilt on restore,
 * which keeps checkpoints portable across sim.compiled modes.
 */

#ifndef MEMSEC_SIM_COMPILED_SCHEDULE_HH
#define MEMSEC_SIM_COMPILED_SCHEDULE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"
#include "util/logging.hh"

namespace memsec {

/** How a run uses the compiled table (config key sim.compiled). */
enum class CompiledMode : uint8_t
{
    Off,    ///< every command audited by the TimingChecker
    On,     ///< audit skipped where the ScheduleVerifier proved the
            ///  design point; audited everywhere else
    Verify, ///< every command audited, and completion predictions
            ///  asserted against the device model
};

/** Parse "off" | "on" | "verify"; fatal on anything else. */
CompiledMode parseCompiledMode(const std::string &text);

const char *toString(CompiledMode mode);

/**
 * One slot of the compiled frame. All cycle fields are deltas from the
 * slot's decision cycle (slot * l); the verifier's lead term is folded
 * in, so every delta is non-negative.
 */
struct CompiledSlot
{
    DomainId domain = 0;   ///< owning security domain (round-robin)
    unsigned group = 0;    ///< bank-group lane (triple alternation)
    bool phantom = false;  ///< padding slot: never decided, no commands

    Cycle actRead = 0;     ///< ACT delta for a read transaction
    Cycle casRead = 0;     ///< RdA delta
    Cycle dataRead = 0;    ///< data-burst start delta
    Cycle completeRead = 0;  ///< data-burst end delta (request done)
    Cycle actWrite = 0;
    Cycle casWrite = 0;
    Cycle dataWrite = 0;
    Cycle completeWrite = 0;
};

/**
 * A verified, flattened frame of the FS template plus the proof
 * provenance it was emitted under. `valid` is false when verification
 * failed (the TimingChecker must then keep auditing every command).
 */
struct CompiledSchedule
{
    bool valid = false;
    unsigned l = 0;          ///< slot width in DRAM cycles
    Cycle lead = 0;          ///< -min(offset): shift making deltas >= 0
    std::vector<CompiledSlot> slots; ///< one frame, phantom pads included

    /* Provenance from the ScheduleVerifier run that emitted this. */
    Cycle hyperperiod = 0;
    uint64_t slotsChecked = 0;
    uint64_t pairsChecked = 0;
    std::string note;        ///< human-readable failure reason if !valid

    Cycle frameCycles() const { return Cycle{slots.size()} * l; }

    /** One-line summary for logs and docs. */
    std::string describe() const;
};

/** One pending command occurrence in a ReplayRing. */
template <typename Op>
struct ReplayEvent
{
    Cycle at = 0;               ///< issue cycle
    Cycle completeAt = kNoCycle; ///< CAS only: predicted request done
    Op *op = nullptr;           ///< planned op this belongs to
    bool cas = false;           ///< false = ACT, true = CAS
};

/**
 * Queue of ReplayEvents kept sorted by issue cycle. Storage for the
 * schedule's in-flight bound is reserved at construction, so
 * steady-state push/pop do not allocate; a burst beyond the bound
 * (slot-skew injection delays ops) grows the storage instead of
 * losing events.
 *
 * Op pointers must stay stable while queued; std::deque elements
 * (the schedulers' planned-op queues) satisfy that under push_back /
 * pop_front.
 */
template <typename Op>
class ReplayRing
{
  public:
    explicit ReplayRing(size_t reserve) { events_.reserve(reserve); }

    size_t size() const { return events_.size(); }
    bool empty() const { return events_.empty(); }

    /** Sorted insert (stable for equal cycles). */
    void push(const ReplayEvent<Op> &ev)
    {
        auto pos = std::upper_bound(
            events_.begin(), events_.end(), ev,
            [](const ReplayEvent<Op> &a, const ReplayEvent<Op> &b) {
                return a.at < b.at;
            });
        events_.insert(pos, ev);
    }

    const ReplayEvent<Op> &front() const
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
    Cycle minCompletion() const
    {
        Cycle best = kNoCycle;
        for (const auto &ev : events_)
            if (ev.cas && ev.completeAt < best)
                best = ev.completeAt;
        return best;
    }

    /** Earliest queued issue cycle (kNoCycle when empty). */
    Cycle minIssue() const
    {
        return events_.empty() ? kNoCycle : events_.front().at;
    }

    void clear() { events_.clear(); }

  private:
    std::vector<ReplayEvent<Op>> events_; ///< ascending by `at`
};

} // namespace memsec

#endif // MEMSEC_SIM_COMPILED_SCHEDULE_HH
