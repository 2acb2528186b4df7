/**
 * @file
 * FR-FCFS+ engine and the non-secure baseline scheduler.
 *
 * The engine implements first-ready, first-come-first-served
 * scheduling with open-page row management, watermark-based write
 * draining, and optional prefetch promotion, over every domain's
 * queue at once. Only the baseline uses it; the secure schedulers
 * plan their commands through the shared replay pipeline instead.
 */

#ifndef MEMSEC_SCHED_FRFCFS_HH
#define MEMSEC_SCHED_FRFCFS_HH

#include <vector>

#include "sched/scheduler.hh"

namespace memsec::sched {

/**
 * One cycle of FR-FCFS decision-making over a set of domains.
 * Stateless between calls except for the read/write drain mode (and
 * the prefetch throttle). The per-cycle scan allocates nothing.
 */
class FrFcfsEngine
{
  public:
    struct Options
    {
        size_t writeHiWatermark = 12; ///< enter drain mode at this many
        size_t writeLoWatermark = 4;  ///< leave drain mode at this many
        bool allowPrefetchPromote = false;
    };

    /** avoidRank value meaning "every rank may be scheduled". */
    static constexpr unsigned kNoRank = ~0u;

    FrFcfsEngine(mem::MemoryController &mc, const Options &opt);

    /**
     * Try to issue one command at `now` for domains in `domains`,
     * issuing nothing to `avoidRank` (the rank being drained for
     * refresh). Returns true if a command was issued.
     */
    bool tick(Cycle now, const std::vector<DomainId> &domains,
              unsigned avoidRank = kNoRank);

    /** Drain mode still armed (it settles on the next idle tick). */
    bool drainingWrites() const { return drainingWrites_; }

    /** Prefetch promotion enabled: the engine mutates its utilisation
     *  window and may move prefetch-queue entries on any tick. */
    bool promotesPrefetches() const { return opt_.allowPrefetchPromote; }

    uint64_t rowHits() const { return rowHits_; }
    uint64_t rowMisses() const { return rowMisses_; }
    uint64_t rowConflicts() const { return rowConflicts_; }

    /** Checkpoint layout (util/serialize.hh). */
    template <class Self, class Ar>
    static void transfer(Self &self, Ar &a);

  private:
    void issueFor(mem::MemRequest *req, bool isCas, Cycle now);
    void updateDrainMode(size_t reads, size_t writes);
    void promotePrefetches(const std::vector<DomainId> &domains,
                           Cycle now);

    mem::MemoryController &mc_;
    dram::DramSystem &dram_;
    Options opt_;
    bool drainingWrites_ = false;
    // Feedback-directed prefetch throttle: promotion is paused while
    // the data bus runs hot (prefetch waste would displace demand).
    Cycle utilWindowStart_ = 0;
    uint64_t utilWindowBusy_ = 0;
    bool prefetchUtilOk_ = true;
    uint64_t rowHits_ = 0;
    uint64_t rowMisses_ = 0;
    uint64_t rowConflicts_ = 0;

    // Per-tick scratch, sized once so a tick never allocates (not
    // checkpointed: nothing in it outlives the tick).
    /** The queues being scanned this tick, in `domains` order. */
    std::vector<mem::TransactionQueue *> scan_;
    /** Per (rank, bank): the tick stamp at which its open row last
     *  had a pending hit. A bank with a pending hit this tick keeps
     *  its row (no PRE). */
    std::vector<uint64_t> usefulRowStamp_;
    uint64_t tickStamp_ = 0;
    unsigned banksPerRank_ = 0;
};

/** The optimised non-secure baseline (stand-in for the MSC winner). */
class FrFcfsScheduler : public Scheduler
{
  public:
    explicit FrFcfsScheduler(mem::MemoryController &mc,
                             bool enablePrefetch = false,
                             bool refresh = false);

    void tick(Cycle now) override;
    Cycle nextWakeCycle(Cycle now) const override;
    std::string name() const override { return "frfcfs"; }
    void registerStats(StatGroup &group) const override;

    const FrFcfsEngine &engine() const { return engine_; }

    /** Refreshes issued so far (0 when refresh is disabled). */
    uint64_t refreshes() const { return refreshes_.value(); }

    void saveState(Serializer &s) const override;
    void restoreState(Deserializer &d) override;

  private:
    /** Checkpoint layout (util/serialize.hh). */
    template <class Self, class Ar>
    static void transfer(Self &self, Ar &a);

    /** Progress the per-rank refresh state machine; returns true if
     *  a command (REF or a draining PRE) was issued this cycle. */
    bool serviceRefresh(Cycle now, unsigned &avoidRank);

    FrFcfsEngine engine_;
    std::vector<DomainId> allDomains_;
    bool refreshEnabled_ = false;
    std::vector<Cycle> nextRefresh_;
    Counter refreshes_;
};

} // namespace memsec::sched

#endif // MEMSEC_SCHED_FRFCFS_HH
