/**
 * @file
 * Cycle-driven simulation kernel with an idle-skip fast path.
 *
 * The simulator owns a list of components and advances a global DRAM
 * bus clock. Each component is ticked once per memory cycle; CPU-side
 * components internally iterate their CPU-clock sub-cycles. A simple
 * tick loop (rather than an event queue) is the right tool here: the
 * memory controller does work nearly every cycle under load, so
 * event-queue overhead would dominate without reducing work.
 *
 * Fixed service policies make the complementary case common too: the
 * next interesting cycle is statically known (the next slot boundary,
 * the next planned command, the next refresh epoch), so long idle
 * stretches can be skipped wholesale. After ticking a cycle the
 * kernel asks every component for its next wake cycle and, when all
 * of them agree the immediate future is dead time, jumps the clock —
 * with a fastForward() catch-up call so per-cycle accounting (CPU
 * clocks, stall counters, energy state residency) stays byte-
 * identical to the naive loop.
 *
 * The same hint gates ticks per component: on an executed cycle, only
 * components whose wake hint is due tick; the rest revalidate the
 * hint against live state (an earlier-ordered component may have
 * mutated them within this very cycle) and, if still asleep, get the
 * one-cycle fastForward() equivalent. A memory-blocked core therefore
 * never rescans its ROB just because the controller executed a slot.
 * Hints are requeried for every component after every tick phase, so
 * a cross-component mutation (a completion delivered into a sleeping
 * core) invalidates the stale hint before the next cycle begins. See
 * docs/PERF.md for the contract and tests/test_fastforward_diff.cc
 * for the proof obligations.
 */

#ifndef MEMSEC_SIM_SIMULATOR_HH
#define MEMSEC_SIM_SIMULATOR_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace memsec {

class Serializer;
class Deserializer;

/**
 * Base class for everything that participates in the tick loop.
 * Components are ticked in registration order each memory cycle.
 */
class Component
{
  public:
    explicit Component(std::string name) : name_(std::move(name)) {}
    virtual ~Component() = default;

    /** Advance this component by one DRAM bus cycle. */
    virtual void tick(Cycle now) = 0;

    /**
     * Fast-forward hint, queried right after tick(now): the earliest
     * cycle > now at which this component's tick() would do anything
     * observable. Returning kNoCycle means "no self-scheduled work; I
     * only react to other components". The contract: for every cycle
     * c in (now, nextWakeCycle(now)), tick(c) must be a no-op except
     * for per-cycle accounting that fastForward() reproduces exactly.
     * The default (now + 1) declares every cycle interesting and
     * preserves the naive loop for components without a hint.
     */
    virtual Cycle
    nextWakeCycle(Cycle now) const
    {
        return now + 1;
    }

    /**
     * Catch up over the skipped span [from, to): called once per
     * kernel jump on every component, in registration order, before
     * the clock moves. Must reproduce byte-for-byte the per-cycle
     * accounting tick() would have performed over those cycles (CPU
     * clock advance, stall counters, energy state residency); the
     * default assumes tick() keeps no per-cycle books.
     */
    virtual void
    fastForward(Cycle from, Cycle to)
    {
        (void)from;
        (void)to;
    }

    /**
     * Serialize this component's evolving state. The obligation is
     * exhaustive: a fresh instance built from the identical config,
     * restored from this stream, must continue the run with every
     * simulated observable byte-identical to an uninterrupted run
     * (tests/test_checkpoint_diff.cc). Config-derived state (slot
     * tables, pipeline solutions, geometry) is rebuilt by the
     * constructor and must not be serialized. Default: stateless.
     * A stateful component states its layout once, in a transfer()
     * template both overrides call (util/serialize.hh); the restore
     * override adds only the rebuild of derived state.
     */
    virtual void
    saveState(Serializer &s) const
    {
        (void)s;
    }

    /** Restore state written by saveState() on an identically
     *  configured fresh instance. */
    virtual void
    restoreState(Deserializer &d)
    {
        (void)d;
    }

    /** Component instance name (for stats and diagnostics). */
    const std::string &name() const { return name_; }

  private:
    std::string name_;
};

/**
 * The global tick loop. Does not own the components; the harness does.
 */
class Simulator
{
  public:
    Simulator() = default;

    /** Register a component; ticked in registration order. */
    void add(Component *c);

    /** Current time in memory cycles. */
    Cycle now() const { return now_; }

    /** Advance the simulation by exactly n memory cycles. */
    void run(Cycle n);

    /**
     * Advance until pred() returns true (checked once per cycle) or
     * maxCycles elapse. Returns the number of cycles actually run.
     */
    Cycle runUntil(const std::function<bool()> &pred, Cycle maxCycles);

    /**
     * Arm the livelock watchdog: `probe` must return a monotone
     * progress counter (e.g. instructions retired + DRAM commands
     * issued). If it fails to advance for `window` cycles the run is
     * fatally terminated with a diagnostic naming the stall interval —
     * a wedged scheduler otherwise spins silently to the cycle limit.
     * window = 0 disarms.
     */
    void setWatchdog(Cycle window, std::function<uint64_t()> probe);

    /**
     * Enable/disable the idle-skip fast path (default on). Forced-
     * naive mode exists for the differential tests, which require the
     * two modes byte-identical in every simulated observable.
     */
    void setFastForward(bool on) { fastForward_ = on; }
    bool fastForwardEnabled() const { return fastForward_; }

    /** Cycles actually ticked (component loops executed). */
    uint64_t cyclesExecuted() const { return cyclesExecuted_; }
    /** Cycles skipped by fast-forward jumps. */
    uint64_t cyclesSkipped() const { return cyclesSkipped_; }
    /** Number of fast-forward jumps taken. */
    uint64_t fastForwardJumps() const { return jumps_; }

    /**
     * Checkpoint layout (util/serialize.hh): the kernel clock plus
     * every registered component, in registration order, each under a
     * section named after it. Watchdog config and the fast-forward
     * flag are not serialized; the harness re-arms them before a
     * restore.
     */
    template <class Self, class Ar>
    static void transfer(Self &self, Ar &a);

  private:
    /** Per-cycle watchdog check; fatal on a stall. */
    void checkWatchdog();

    /**
     * Tick phase of one executed cycle: components whose cached wake
     * hint is due tick normally; the rest revalidate their hint
     * against live state (an earlier-ordered component may have
     * mutated them this very cycle) and, if still asleep, receive a
     * one-cycle fastForward() catch-up, which the hint contract
     * guarantees is byte-identical to the tick they skipped.
     */
    void tickDue();

    /**
     * Requery every component's wake hint after a tick phase and
     * cache them in wakes_, returning their minimum clamped into
     * [now + 1, end].
     */
    Cycle refreshWakes(Cycle end);

    /**
     * Jump now_ forward to `wake` if the watchdog deadline allows:
     * calls fastForward() on every component, advances the clock and
     * re-checks the watchdog at the landing cycle (so a stalled run
     * dies at the identical cycle in both modes).
     */
    void jumpTo(Cycle wake);

    std::vector<Component *> components_;
    /** Cached per-component wake hints, refreshed every executed
     *  cycle; derived state, reset on every run() entry. */
    std::vector<Cycle> wakes_;
    Cycle now_ = 0;

    bool fastForward_ = true;
    uint64_t cyclesExecuted_ = 0;
    uint64_t cyclesSkipped_ = 0;
    uint64_t jumps_ = 0;

    Cycle watchdogWindow_ = 0; ///< 0 = disarmed
    std::function<uint64_t()> watchdogProbe_;
    uint64_t watchdogLastValue_ = 0;
    Cycle watchdogLastProgress_ = 0;
};

} // namespace memsec

#endif // MEMSEC_SIM_SIMULATOR_HH
