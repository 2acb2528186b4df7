/**
 * @file
 * The sim.compiled mode: whether the TimingChecker audits a run.
 *
 * The paper's central observation is that a fixed service schedule is
 * a fixed per-cycle template over a known hyperperiod, so an FS run's
 * command timing can be proven once, ahead of time (docs/PERF.md).
 * The template is core::SlotSchedule; FsScheduler hands it to
 * analysis::ScheduleVerifier, and under sim.compiled=on a proven
 * design point skips the dynamic TimingChecker. Everything else is
 * the same in both modes: the FS family and TP issue every planned
 * op's ACT and CAS through one timestamp-sorted replay ring
 * (sched/replay_scheduler.hh), and every CAS asserts that the device's
 * data end is the planned one and that a fixed release does not come
 * before it.
 */

#ifndef MEMSEC_SIM_COMPILED_SCHEDULE_HH
#define MEMSEC_SIM_COMPILED_SCHEDULE_HH

#include <cstdint>
#include <string>

namespace memsec {

/** Whether the TimingChecker audits the run (config key sim.compiled). */
enum class CompiledMode : uint8_t
{
    Off, ///< every command audited by the TimingChecker
    On,  ///< audit skipped where the ScheduleVerifier proved the
         ///  design point; audited everywhere else
};

/** Parse "off" | "on"; fatal on anything else. */
CompiledMode parseCompiledMode(const std::string &text);

} // namespace memsec

#endif // MEMSEC_SIM_COMPILED_SCHEDULE_HH
