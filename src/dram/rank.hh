/**
 * @file
 * Per-rank DRAM state: banks, rank-level timing windows (tRRD, tFAW,
 * column-command turnaround), power state, and energy event counters.
 */

#ifndef MEMSEC_DRAM_RANK_HH
#define MEMSEC_DRAM_RANK_HH

#include <algorithm>
#include <vector>

#include "dram/bank.hh"
#include "dram/timing.hh"
#include "sim/types.hh"
#include "util/recent_ring.hh"

namespace memsec::dram {

/** Power state of a rank (for the energy model). */
enum class PowerState : uint8_t
{
    PrechargeStandby, ///< all banks closed, clock enabled
    ActiveStandby,    ///< at least one bank open
    PowerDown,        ///< precharge power-down (fast exit)
    Refreshing,       ///< executing a REF
};

/** Event counts consumed by the energy model. */
struct RankEnergyCounters
{
    uint64_t activates = 0;      ///< real row activations
    uint64_t reads = 0;          ///< real column reads
    uint64_t writes = 0;         ///< real column writes
    uint64_t suppressedActs = 0; ///< dummy ACTs suppressed (energy opt 1)
    uint64_t suppressedCas = 0;  ///< dummy CAS suppressed (energy opt 1)
    uint64_t refreshes = 0;
    uint64_t cyclesActive = 0;
    uint64_t cyclesPrecharge = 0;
    uint64_t cyclesPowerDown = 0;
    uint64_t cyclesRefreshing = 0;
};

/** One rank: a set of banks sharing activation and column resources. */
class Rank
{
  public:
    Rank(unsigned banks, const TimingParams &tp);

    const Bank &bank(unsigned b) const { return banks_.at(b); }
    unsigned numBanks() const { return static_cast<unsigned>(banks_.size()); }

    /**
     * Bank commands (ACT, column read/write with optional
     * auto-precharge, PRE). Banks change only through these, so the
     * rank can count its open banks: anyBankOpen(), asked by every
     * energy settle, is then O(1).
     */
    void activateBank(unsigned b, Cycle t, unsigned row);
    void readBank(unsigned b, Cycle t, bool autoPre);
    void writeBank(unsigned b, Cycle t, bool autoPre);
    void prechargeBank(unsigned b, Cycle t);

    /** Earliest cycle an ACT may issue rank-wide (tRRD + tFAW). */
    Cycle
    nextActRankLimit() const
    {
        if (actWindow_.size() < 4)
            return nextActRrd_;
        return std::max(nextActRrd_, actWindow_.front() + tp_.faw);
    }

    /** Earliest cycle a column-read may issue rank-wide. */
    Cycle nextRead() const { return nextRead_; }
    /** Earliest cycle a column-write may issue rank-wide. */
    Cycle nextWrite() const { return nextWrite_; }

    /** Record an ACT at cycle t (updates tRRD/tFAW windows). A
     *  suppressed ACT keeps all timing state but is not charged to
     *  the activate energy counter (energy optimisation 1). */
    void recordActivate(Cycle t, bool suppressed = false);

    /** Record a column read at cycle t. */
    void recordRead(Cycle t);

    /** Record a column write at cycle t. */
    void recordWrite(Cycle t);

    /** True iff any bank has an open row. */
    bool anyBankOpen() const { return openBanks_ > 0; }

    /** True iff every bank can accept an ACT at or before cycle t
     *  (used to check refresh preconditions). */
    bool allBanksIdleBy(Cycle t) const;

    /** Begin a refresh at cycle t; blocks all banks for tRFC. */
    void startRefresh(Cycle t);

    /** Cycle the current refresh (if any) completes; 0 if none. */
    Cycle refreshEndsAt() const { return refreshEnd_; }

    /** Enter precharge power-down at cycle t. */
    void enterPowerDown(Cycle t);

    /** Exit power-down at cycle t; commands legal at t + tXP. */
    void exitPowerDown(Cycle t);

    bool isPoweredDown() const { return poweredDown_; }

    /** Earliest legal power-down exit (tCKE residency). */
    Cycle earliestPdExit() const { return pdEnteredAt_ + tp_.cke; }

    /** Earliest cycle any command (incl. a new PDE) is legal after
     *  the last power-down exit (tXP). */
    Cycle pdExitReadyAt() const { return pdExitReadyAt_; }

    /**
     * Account every cycle in [from, to) at the current power state.
     * Valid only while no command issues in the span: bank open/closed
     * state and power-down are command-driven, so the only transition
     * inside an idle span is a refresh completing at refreshEnd_.
     */
    void accountEnergySpan(Cycle from, Cycle to);

    /**
     * First cycle whose residency is not yet accounted. Accounting
     * starts at cycle 0 and covers each cycle exactly once, so this is
     * the sum of the residency counters: derived, never serialized.
     */
    Cycle energyCursor() const;

    /** accountEnergySpan(energyCursor(), to); panics if `to` lies
     *  behind the cursor (a command applied out of time order). */
    void settleEnergy(Cycle to);

    const RankEnergyCounters &energy() const { return energy_; }
    RankEnergyCounters &energy() { return energy_; }

    /** Current power state (derived). */
    PowerState powerState(Cycle now) const;

    /** Checkpoint layout (util/serialize.hh); restoring recounts
     *  the open banks. */
    template <class Self, class Ar>
    static void transfer(Self &self, Ar &a);

  private:
    /** Apply `op` to bank b, keeping openBanks_ in step. */
    template <typename Op> void mutateBank(unsigned b, Op &&op);

    const TimingParams &tp_;
    std::vector<Bank> banks_;
    unsigned openBanks_ = 0; ///< banks with an open row (derived)

    Cycle nextActRrd_ = 0;
    RecentRing<Cycle, 4> actWindow_; ///< recent ACT times for tFAW
    Cycle nextRead_ = 0;
    Cycle nextWrite_ = 0;

    Cycle refreshEnd_ = 0;
    bool poweredDown_ = false;
    Cycle pdEnteredAt_ = 0;
    Cycle pdExitReadyAt_ = 0;

    RankEnergyCounters energy_;
};

} // namespace memsec::dram

#endif // MEMSEC_DRAM_RANK_HH
