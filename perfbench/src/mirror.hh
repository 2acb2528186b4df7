/**
 * @file
 * The traced mirror: the same system harness::ExperimentSystem
 * builds, assembled here from the public classes the harness uses
 * (Simulator, MemoryController, Scheduler, CoreModel), with a
 * forwarding timing proxy in front of every Component and every
 * Scheduler. The proxies only measure; they forward every call
 * unchanged, so the mirror's stats dump must be byte-identical to the
 * harness's `stats.dump` for the same Config. The benchmark refuses
 * the mirror's layer numbers when it is not.
 */

#ifndef PERFBENCH_MIRROR_HH
#define PERFBENCH_MIRROR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.hh"

namespace perfbench {

/** Host self time and call count of one proxied entry point. */
struct Span
{
    double seconds = 0.0;
    uint64_t calls = 0;
};

/**
 * Host time per layer for one mirrored experiment. Every span is
 * self time: the scheduler proxy runs inside the controller's tick
 * and wake calls, and its time is taken out of the controller's.
 */
struct LayerTimes
{
    Span cpuTick, cpuWake, cpuFf;    ///< CoreModel (core + LLC)
    Span memTick, memWake, memFf;    ///< MemoryController, DRAM, energy
    Span schedTick, schedWake;       ///< Scheduler, incl. TimingChecker
    double stepSeconds = 0.0;        ///< whole stepping loop
    double warmupSeconds = 0.0;      ///< CoreModel construction
    uint64_t warmupRecords = 0;      ///< functional warmup records

    /** Every span by metric prefix ("cpu.tick", ...). */
    std::vector<std::pair<std::string, const Span *>> spans() const;

    /** Step time spent outside every proxied call (kernel loop). */
    double simSelf() const;
};

/** A mirrored system; build, run() once, then finish() once. */
class MirrorSystem
{
  public:
    /**
     * Build the mirror. Refuses (memsec fatal) any Config the mirror
     * does not reproduce: several channels, shards, fault injection,
     * audit cores, covert-channel senders, or other schedulers than
     * FR-FCFS and FS.
     */
    explicit MirrorSystem(const memsec::Config &cfg);
    ~MirrorSystem();
    MirrorSystem(const MirrorSystem &) = delete;
    MirrorSystem &operator=(const MirrorSystem &) = delete;

    /** Step warmup and measurement to the end, timing the loop. */
    void run();

    /** Finalize the schedulers and return the stats dump, in the
     *  exact layout harness::ExperimentSystem::finish() writes. */
    std::string finish();

    const LayerTimes &times() const;

    /** Simulated and kernel counts by metric name, after finish(). */
    std::vector<std::pair<std::string, double>> counts() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace perfbench

#endif // PERFBENCH_MIRROR_HH
