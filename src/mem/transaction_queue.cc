#include "mem/transaction_queue.hh"

#include "mem/memory_controller.hh"

#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::mem {

template <class Self, class Ar>
void
TransactionQueue::transfer(Self &self, Ar &a, const MemoryController &mc)
{
    a.section("txq");
    size_t reads = 0;
    size_t writes = 0;
    a.seq(self.entries_, [&](auto &req) {
        mc.transferRequest(a, req);
        ++(req->isRead() ? reads : writes);
        a.check(reads <= self.readCap_ && writes <= self.writeCap_,
                "transaction queue holds more than its capacity");
    });
    if constexpr (Ar::kLoading)
        self.reads_ = reads;
}

template void TransactionQueue::transfer(const TransactionQueue &,
                                         Serializer &,
                                         const MemoryController &);
template void TransactionQueue::transfer(TransactionQueue &, Deserializer &,
                                         const MemoryController &);

TransactionQueue::TransactionQueue(size_t readCapacity,
                                   size_t writeCapacity)
    : readCap_(readCapacity), writeCap_(writeCapacity)
{
    panic_if(readCapacity == 0 || writeCapacity == 0,
             "transaction queue capacities must be nonzero");
}

void
TransactionQueue::push(std::unique_ptr<MemRequest> req)
{
    panic_if(full(req->type),
             "push to full transaction queue (domain {})", req->domain);
    if (req->isRead())
        ++reads_;
    entries_.push_back(std::move(req));
}

const MemRequest *
TransactionQueue::head() const
{
    return entries_.empty() ? nullptr : entries_.front().get();
}

MemRequest *
TransactionQueue::findOldest(
    const std::function<bool(const MemRequest &)> &pred)
{
    for (const auto &e : entries_) {
        if (pred(*e))
            return e.get();
    }
    return nullptr;
}

const MemRequest *
TransactionQueue::findOldest(
    const std::function<bool(const MemRequest &)> &pred) const
{
    for (const auto &e : entries_) {
        if (pred(*e))
            return e.get();
    }
    return nullptr;
}

std::unique_ptr<MemRequest>
TransactionQueue::popOldest()
{
    panic_if(entries_.empty(), "popOldest on empty queue");
    auto req = std::move(entries_.front());
    entries_.pop_front();
    if (req->isRead())
        --reads_;
    return req;
}

std::unique_ptr<MemRequest>
TransactionQueue::take(const MemRequest *req)
{
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->get() == req) {
            auto out = std::move(*it);
            entries_.erase(it);
            if (out->isRead())
                --reads_;
            return out;
        }
    }
    panic("take: request not in queue");
}

bool
TransactionQueue::hasWriteTo(Addr lineAddr) const
{
    const Addr line = lineAddr / kLineBytes;
    for (const auto &e : entries_) {
        if (e->type == ReqType::Write && e->addr / kLineBytes == line)
            return true;
    }
    return false;
}

bool
TransactionQueue::hasEntryFor(Addr lineAddr) const
{
    const Addr line = lineAddr / kLineBytes;
    for (const auto &e : entries_) {
        if (e->addr / kLineBytes == line)
            return true;
    }
    return false;
}

} // namespace memsec::mem
