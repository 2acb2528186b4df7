/**
 * @file
 * Memory transaction representation and the client callback interface.
 */

#ifndef MEMSEC_MEM_REQUEST_HH
#define MEMSEC_MEM_REQUEST_HH

#include <memory>
#include <string>

#include "sim/types.hh"

namespace memsec::mem {

/** Kind of transaction entering the controller. */
enum class ReqType : uint8_t
{
    Read,     ///< demand load (LLC miss)
    Write,    ///< writeback from the LLC
    Prefetch, ///< prefetcher-generated read
    Dummy,    ///< scheduler-inserted shaping access (never from a core)
};

const char *reqTypeName(ReqType t);

/** Decoded physical location of one cache line. */
struct Decoded
{
    unsigned channel = 0;
    unsigned rank = 0;
    unsigned bank = 0;
    unsigned row = 0;
    unsigned col = 0;
};

struct MemRequest;

/** Receiver of request completions (a core model or the LLC). */
class MemClient
{
  public:
    virtual ~MemClient() = default;

    /** Called when req's data has fully returned / been accepted. */
    virtual void memResponse(const MemRequest &req) = 0;

    /**
     * Called when a prefetch hint was discarded by the controller
     * (side-queue overflow). The client must clear any tracking
     * state — no memResponse will ever arrive for this request.
     */
    virtual void memDropped(const MemRequest &req) { (void)req; }
};

/** One cache-line transaction flowing through the controller. */
struct MemRequest
{
    ReqId id = 0;
    DomainId domain = 0;
    ReqType type = ReqType::Read;
    Addr addr = 0;
    Decoded loc;

    Cycle arrival = 0;          ///< cycle enqueued at the controller
    Cycle firstCommand = kNoCycle; ///< cycle of first DRAM command
    Cycle completed = kNoCycle; ///< cycle data finished / write accepted
    /** Open-loop client issue stamp (kNoCycle for closed-loop
     *  requests). When set, per-domain latency histograms account
     *  from this cycle instead of `arrival`, so client-side queueing
     *  under overload is not hidden from the tail percentiles. */
    Cycle issued = kNoCycle;

    MemClient *client = nullptr; ///< completion sink (null for dummies)

    /**
     * Came from the controller's fixed-capacity request pool; routes
     * the object back there on retirement. Pure provenance — never
     * serialized (a restored request is heap-owned again).
     */
    bool pooled = false;

    bool isRead() const
    {
        return type == ReqType::Read || type == ReqType::Prefetch ||
               type == ReqType::Dummy;
    }
    bool isDemand() const { return type == ReqType::Read; }

    std::string toString() const;
};

} // namespace memsec::mem

#endif // MEMSEC_MEM_REQUEST_HH
