/**
 * @file
 * Per-security-domain transaction queue.
 *
 * The proposed microarchitecture (Section 5.1) keeps one queue per
 * domain so the arriving transaction's domain tag selects a queue and
 * no cross-domain state is shared. The same structure doubles as the
 * baseline's transaction queue (the baseline scheduler simply scans
 * all queues).
 */

#ifndef MEMSEC_MEM_TRANSACTION_QUEUE_HH
#define MEMSEC_MEM_TRANSACTION_QUEUE_HH

#include <deque>
#include <functional>
#include <memory>

#include "mem/request.hh"

namespace memsec::mem {

class MemoryController;

/**
 * FIFO of pending transactions with predicate-based extraction.
 * Reads and writes have separate capacity budgets (the physical
 * design has distinct read and write queues; a burst of writebacks
 * must not crowd out demand loads).
 */
class TransactionQueue
{
  public:
    TransactionQueue(size_t readCapacity, size_t writeCapacity);

    size_t readCapacity() const { return readCap_; }
    size_t writeCapacity() const { return writeCap_; }
    size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }

    /** True if a request of the given type cannot be accepted. */
    bool full(ReqType type) const
    {
        return type == ReqType::Write ? writeCount() >= writeCap_
                                      : readCount() >= readCap_;
    }

    /** Number of queued reads (incl. prefetches). */
    size_t readCount() const { return reads_; }
    /** Number of queued writes. */
    size_t writeCount() const { return size() - reads_; }

    /** Enqueue; panics if full (callers must check full() first). */
    void push(std::unique_ptr<MemRequest> req);

    /** Oldest entry or nullptr. */
    const MemRequest *head() const;

    /** Entry at position i (0 = oldest). */
    const MemRequest *at(size_t i) const { return entries_.at(i).get(); }

    /** Oldest-first iteration over the owned entries (no bounds
     *  checks; for per-cycle scheduler scans). */
    auto begin() { return entries_.begin(); }
    auto end() { return entries_.end(); }

    /** Oldest entry satisfying pred, or nullptr. A const queue hands
     *  out a const pointer — the old single const method returned a
     *  mutable MemRequest*, silently laundering away constness. */
    MemRequest *
    findOldest(const std::function<bool(const MemRequest &)> &pred);
    const MemRequest *
    findOldest(const std::function<bool(const MemRequest &)> &pred) const;

    /** Remove and return the oldest entry; queue must be non-empty. */
    std::unique_ptr<MemRequest> popOldest();

    /** Remove and return the given entry (must be present). */
    std::unique_ptr<MemRequest> take(const MemRequest *req);

    /** True if a queued write covers the same line address. */
    bool hasWriteTo(Addr lineAddr) const;

    /** True if a queued entry of any type covers the line. */
    bool hasEntryFor(Addr lineAddr) const;

    /**
     * Checkpoint layout (util/serialize.hh): the entries, each through
     * `mc.transferRequest`. Restoring rejects a queue holding more
     * reads or writes than its capacity as "snapshot-corrupt".
     */
    template <class Self, class Ar>
    static void transfer(Self &self, Ar &a, const MemoryController &mc);

  private:
    size_t readCap_ = 0;
    size_t writeCap_ = 0;
    size_t reads_ = 0;
    std::deque<std::unique_ptr<MemRequest>> entries_;
};

} // namespace memsec::mem

#endif // MEMSEC_MEM_TRANSACTION_QUEUE_HH
