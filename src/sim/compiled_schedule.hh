/**
 * @file
 * Precompiled slot tables of the fixed-service schedulers and the
 * sim.compiled mode.
 *
 * The paper's central observation — a fixed service schedule is a
 * *fixed per-cycle template over a known hyperperiod* — means an FS
 * run's command timing can be proven once, ahead of time
 * (docs/PERF.md). CompiledSchedule / CompiledSlot hold one frame of
 * that template, flattened to per-slot command-cycle deltas. They are
 * emitted by analysis::ScheduleVerifier::compile(), which first
 * re-proves the template conflict-free over the hyperperiod, so a
 * table is only ever produced from a verified schedule. FsScheduler
 * checks its own template against it before sim.compiled=on may skip
 * the TimingChecker.
 *
 * The commands themselves are issued elsewhere: the FS family and TP
 * push every planned op's ACT and CAS onto one timestamp-sorted
 * replay ring (sched/replay_scheduler.hh), under every sim.compiled
 * mode. sim.compiled decides only how much of that stream is audited;
 * the ring, the wake hints and the energy books are the same in all
 * three modes.
 */

#ifndef MEMSEC_SIM_COMPILED_SCHEDULE_HH
#define MEMSEC_SIM_COMPILED_SCHEDULE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

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

} // namespace memsec

#endif // MEMSEC_SIM_COMPILED_SCHEDULE_HH
