/**
 * @file
 * Hostile-input tests for the snapshot decoder. Every byte string a
 * restore can be handed must end in a clean restore or a structured
 * SerializeError with an offset: never a panic, an abort or an
 * out-of-bounds access (the sanitizer jobs run this file).
 *
 * Two layers:
 *  - crafted snapshots, one per validation the restore path performs
 *    on decoded values that would otherwise index past a table: a
 *    request outside the controller's domains or geometry, a
 *    transaction queue over its capacity, a command-log entry whose
 *    command type is out of range, and an LLC whose tags or LRU
 *    stamps no run can produce;
 *  - seeded mutation of real mid-run snapshots of every scheduler
 *    family: truncation at every section boundary, and a few hundred
 *    byte flips re-sealed with encodeSnapshot so that the CRC passes
 *    and only the payload's own checks stand between the bytes and the
 *    simulator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "util/random.hh"
#include "util/serialize.hh"

using namespace memsec;
using namespace memsec::harness;

namespace {

constexpr char kFingerprint[] = "fuzz";

/** A small system: short run, tiny LLCs, so the payload is mostly
 *  structure rather than cache lines, and a short functional warmup,
 *  so the hundreds of fresh systems the mutants restore into are
 *  cheap to build. */
Config
fuzzConfig(const std::string &scheme)
{
    Config c = defaultConfig();
    c.merge(schemeConfig(scheme));
    c.set("workload", "mcf");
    c.set("cores", 4);
    c.set("seed", 3);
    c.set("core.llc_kb", 16);
    c.set("core.functional_warmup", 2000);
    c.set("mc.queue_capacity", 4);
    c.set("dram.channels", 1);
    c.set("dram.ranks", 8);
    c.set("dram.banks", 8);
    c.set("dram.rows", 32768);
    c.set("dram.cols", 128);
    c.set("sim.warmup", 500);
    c.set("sim.measure", 6000);
    c.set("audit.core", 0);
    c.set("audit.progress_interval", 500);
    return c;
}

/** Snapshot payload of `cfg` after `cycles` cycles. */
std::string
midRunPayload(const Config &cfg, Cycle cycles = 2500)
{
    ExperimentSystem sys(cfg);
    sys.step(cycles);
    Serializer s;
    sys.saveState(s);
    return s.take();
}

/** Outcome of restoring one (possibly hostile) payload. */
struct Restore
{
    bool ok = false;
    SerializeError error;
    std::string escaped; ///< non-empty: an exception other than
                         ///< SerializeError left the restore path
};

/**
 * Seal `payload` in a container, decode it as runExperiment() does,
 * and restore it into a freshly constructed system.
 */
Restore
restore(const Config &cfg, const std::string &payload)
{
    Restore r;
    try {
        const std::string bytes = decodeSnapshot(
            encodeSnapshot(kFingerprint, payload), kFingerprint);
        ExperimentSystem fresh(cfg);
        Deserializer d(bytes);
        fresh.restoreState(d);
        r.ok = true;
    } catch (const SerializeError &e) {
        r.error = e;
    } catch (const std::exception &e) {
        r.escaped = e.what();
    }
    return r;
}

/** The encoding of Serializer::section(tag). */
std::string
sectionBytes(const std::string &tag)
{
    Serializer s;
    s.section(tag);
    return s.take();
}

uint64_t
readU64(const std::string &b, size_t at)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(static_cast<uint8_t>(b[at + i]))
             << (8 * i);
    return v;
}

void
writeU32(std::string &b, size_t at, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        b[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

void
writeU64(std::string &b, size_t at, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        b[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

/** Offset of the count that follows the first `tag` section whose
 *  count is nonzero, or npos. */
size_t
firstNonEmpty(const std::string &payload, const std::string &tag)
{
    const std::string marker = sectionBytes(tag);
    for (size_t at = payload.find(marker); at != std::string::npos;
         at = payload.find(marker, at + 1)) {
        const size_t countAt = at + marker.size();
        if (readU64(payload, countAt) > 0)
            return countAt;
    }
    return std::string::npos;
}

// Byte layout of one request (MemoryController::transferRequest):
// id u64, domain u32, type u8, addr u64, channel/rank/bank/row/col
// u32, arrival/firstCommand/completed/issued u64, has-client bool.
constexpr size_t kReqDomain = 8;
constexpr size_t kReqChannel = 21;
constexpr size_t kReqCol = 37;
constexpr size_t kReqBytes = 74;

/** Restore the fs_rp snapshot with one u32 field of the first queued
 *  request set to `value`; expect a rejection right after `checkedAt`
 *  (the end of the field group the check covers). */
void
expectRequestFieldRejected(size_t field, uint32_t value, size_t checkedAt)
{
    const Config cfg = fuzzConfig("fs_rp");
    std::string payload = midRunPayload(cfg);
    const size_t countAt = firstNonEmpty(payload, "txq");
    ASSERT_NE(countAt, std::string::npos) << "no queued request to craft";
    const size_t req = countAt + 8;

    ASSERT_TRUE(restore(cfg, payload).ok) << "unmodified snapshot";
    writeU32(payload, req + field, value);
    const Restore r = restore(cfg, payload);
    ASSERT_FALSE(r.ok) << "out-of-range request field restored";
    ASSERT_TRUE(r.escaped.empty()) << r.escaped;
    EXPECT_EQ(r.error.category, "snapshot-corrupt") << r.error.toString();
    EXPECT_EQ(r.error.offset, req + checkedAt) << r.error.toString();
}

} // namespace

// -- Crafted snapshots: each validation on decoded values ------------

TEST(SnapshotReject, RequestDomainOutOfRange)
{
    // 4 cores = 4 domains: domain 4 is one past the last queue.
    expectRequestFieldRejected(kReqDomain, 4, kReqDomain + 4);
}

TEST(SnapshotReject, RequestChannelOutOfRange)
{
    expectRequestFieldRejected(kReqChannel, 1, kReqCol + 4);
}

TEST(SnapshotReject, RequestRankOutOfRange)
{
    expectRequestFieldRejected(kReqChannel + 4, 8, kReqCol + 4);
}

TEST(SnapshotReject, RequestBankOutOfRange)
{
    expectRequestFieldRejected(kReqChannel + 8, 8, kReqCol + 4);
}

TEST(SnapshotReject, RequestRowOutOfRange)
{
    expectRequestFieldRejected(kReqChannel + 12, 32768, kReqCol + 4);
}

TEST(SnapshotReject, RequestColumnOutOfRange)
{
    expectRequestFieldRejected(kReqCol, 128, kReqCol + 4);
}

TEST(SnapshotReject, TransactionQueueOverCapacity)
{
    // Append capacity + 1 copies of a queued request to its queue:
    // whatever its type, that type's budget overflows.
    const Config cfg = fuzzConfig("fs_rp");
    std::string payload = midRunPayload(cfg);
    const size_t countAt = firstNonEmpty(payload, "txq");
    ASSERT_NE(countAt, std::string::npos) << "no queued request to copy";
    const uint64_t n = readU64(payload, countAt);
    const size_t cap = cfg.getUint("mc.queue_capacity");
    const std::string req = payload.substr(countAt + 8, kReqBytes);
    const size_t end = countAt + 8 + n * kReqBytes;
    std::string copies;
    for (size_t i = 0; i <= cap; ++i)
        copies += req;
    payload.insert(end, copies);
    writeU64(payload, countAt, n + cap + 1);

    const Restore r = restore(cfg, payload);
    ASSERT_FALSE(r.ok) << "over-capacity queue restored";
    ASSERT_TRUE(r.escaped.empty()) << r.escaped;
    EXPECT_EQ(r.error.category, "snapshot-corrupt") << r.error.toString();
    EXPECT_NE(r.error.message.find("capacity"), std::string::npos);
    // Rejected at the end of the first copy past the budget.
    EXPECT_GT(r.error.offset, end);
    EXPECT_LE(r.error.offset, end + copies.size());
    EXPECT_EQ((r.error.offset - countAt - 8) % kReqBytes, 0u);
}

TEST(SnapshotReject, CommandLogTypeOutOfRange)
{
    const Config cfg = fuzzConfig("fs_rp");
    std::string payload = midRunPayload(cfg);
    // cmdlog section: total u64, entry count u64, then per entry the
    // CmdType byte first.
    const std::string marker = sectionBytes("cmdlog");
    const size_t at = payload.find(marker);
    ASSERT_NE(at, std::string::npos);
    const size_t countAt = at + marker.size() + 8;
    ASSERT_GT(readU64(payload, countAt), 0u) << "empty command log";
    const size_t typeAt = countAt + 8;
    payload[typeAt] = static_cast<char>(9); // PdExit (8) is the last

    const Restore r = restore(cfg, payload);
    ASSERT_FALSE(r.ok) << "out-of-range command type restored";
    ASSERT_TRUE(r.escaped.empty()) << r.escaped;
    EXPECT_EQ(r.error.category, "snapshot-corrupt") << r.error.toString();
    EXPECT_EQ(r.error.offset, typeAt + 1) << r.error.toString();
}

TEST(SnapshotReject, JournalHistogramWithoutBins)
{
    // A journal entry carries each latency histogram's bin layout; a
    // zero width or bin count must be rejected, not handed to
    // Histogram::init (which panics on it).
    ExperimentResult res;
    res.domainReadLatency.resize(1);
    res.domainReadLatency[0].init(0.0, 16.0, 4);
    Serializer s;
    serializeResult(s, res);
    std::string good = s.take();
    // Tail: lo f64, width f64, bin count u64, then the histogram
    // (bin count u64, 4 bins, underflow, overflow, samples, sum).
    const size_t histBytes = 8 + 4 * 8 + 3 * 8 + 8;
    const size_t widthAt = good.size() - histBytes - 8 - 8;
    const size_t binsAt = widthAt + 8;

    for (const size_t at : {widthAt, binsAt}) {
        std::string bad = good;
        writeU64(bad, at, 0); // width 0.0, or no bins
        Deserializer d(bad);
        try {
            deserializeResult(d);
            ADD_FAILURE() << "empty bin layout at " << at << " accepted";
        } catch (const SerializeError &e) {
            EXPECT_EQ(e.category, "snapshot-corrupt") << e.toString();
            EXPECT_EQ(e.offset, binsAt + 8) << e.toString();
        }
    }
    Deserializer d(good);
    EXPECT_EQ(deserializeResult(d).domainReadLatency.at(0).bins().size(),
              4u);
}

namespace {

/**
 * The first LLC's checkpoint in a fuzzConfig snapshot
 * (Cache::transfer): the "cache" marker, the set count, then per way
 * (set-major) a u64 tag, valid, dirty and prefetched bytes and a u64
 * LRU stamp, then the cache's u64 clock.
 */
struct LlcImage
{
    static constexpr size_t kWays = 8; // the default core.llc_ways
    static constexpr size_t kLineRecord = 8 + 3 + 8;

    Config cfg = fuzzConfig("fs_rp");
    std::string payload = midRunPayload(cfg);
    size_t sets = 0;
    size_t first = 0; ///< offset of set 0, way 0

    LlcImage()
    {
        const size_t countAt = firstNonEmpty(payload, "cache");
        if (countAt == std::string::npos)
            return;
        sets = readU64(payload, countAt);
        first = countAt + 8;
    }

    size_t
    lineAt(size_t set, size_t way) const
    {
        return first + (set * kWays + way) * kLineRecord;
    }
    bool valid(size_t set, size_t way) const
    {
        return payload[lineAt(set, way) + 8] != 0;
    }
    size_t clockAt() const { return lineAt(sets, 0); }

    /** Restore the edited payload; expect "snapshot-corrupt" at
     *  `offset` with `what` in the message. */
    void
    expectRejected(size_t offset, const std::string &what) const
    {
        const Restore r = restore(cfg, payload);
        ASSERT_FALSE(r.ok) << "inconsistent cache restored";
        ASSERT_TRUE(r.escaped.empty()) << r.escaped;
        EXPECT_EQ(r.error.category, "snapshot-corrupt") << r.error.toString();
        EXPECT_NE(r.error.message.find(what), std::string::npos)
            << r.error.toString();
        EXPECT_EQ(r.error.offset, offset) << r.error.toString();
    }
};

} // namespace

TEST(SnapshotReject, CacheTagTwiceInOneSet)
{
    // A tag is installed only after a lookup missed it, so no run
    // builds a set that holds one tag twice; find() would only ever
    // see the first copy, and the second would linger as a stale line.
    LlcImage llc;
    ASSERT_EQ(llc.sets, 32u); // 16 KB / 64 B / 8 ways
    ASSERT_TRUE(restore(llc.cfg, llc.payload).ok) << "unmodified snapshot";
    size_t set = 0;
    while (set < llc.sets && !(llc.valid(set, 0) && llc.valid(set, 5)))
        ++set;
    ASSERT_LT(set, llc.sets) << "no set with ways 0 and 5 valid";
    writeU64(llc.payload, llc.lineAt(set, 5),
             readU64(llc.payload, llc.lineAt(set, 0)));
    // Rejected once way 5's record has been read.
    llc.expectRejected(llc.lineAt(set, 6), "twice");
}

TEST(SnapshotReject, CacheTagBeyondAddressWidth)
{
    // 32 sets and 64 B lines leave 64 - 6 - 5 = 53 tag bits.
    LlcImage llc;
    ASSERT_EQ(llc.sets, 32u);
    const size_t at = llc.lineAt(3, 2);
    ASSERT_TRUE(llc.valid(3, 2));
    writeU64(llc.payload, at, (uint64_t{1} << 53) - 1); // widest legal
    ASSERT_TRUE(restore(llc.cfg, llc.payload).ok) << "53-bit tag refused";
    writeU64(llc.payload, at, uint64_t{1} << 53);
    // Rejected after the tag and its valid byte.
    llc.expectRejected(at + 9, "tag out of range");
}

TEST(SnapshotReject, CacheStampAheadOfClock)
{
    LlcImage llc;
    ASSERT_GT(llc.sets, 0u);
    const uint64_t clock = readU64(llc.payload, llc.clockAt());
    const size_t stampAt = llc.lineAt(7, 1) + 11;
    writeU64(llc.payload, stampAt, clock); // the newest legal stamp
    ASSERT_TRUE(restore(llc.cfg, llc.payload).ok) << "stamp == clock";
    writeU64(llc.payload, stampAt, clock + 1);
    // Rejected once the clock that bounds it has been read.
    llc.expectRejected(llc.clockAt() + 8, "stamp");
}

// -- Seeded mutation of real snapshots ------------------------------

namespace {

/**
 * Offsets of every section marker in `payload`: a u64 length in
 * [2, 40] followed by that many name characters. A spurious match
 * inside other data only adds a cut point, which is harmless.
 */
std::vector<size_t>
sectionBoundaries(const std::string &payload)
{
    std::vector<size_t> out;
    for (size_t at = 0; at + 8 < payload.size(); ++at) {
        const uint64_t len = readU64(payload, at);
        if (len < 2 || len > 40 || at + 8 + len > payload.size())
            continue;
        bool name = true;
        for (size_t i = 0; i < len && name; ++i) {
            const char c = payload[at + 8 + i];
            name = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                   c == '-' || c == '_';
        }
        if (name)
            out.push_back(at);
    }
    return out;
}

/** Every design point family with its own checkpoint layout. */
std::vector<Config>
fuzzConfigs()
{
    std::vector<Config> out;
    for (const char *scheme :
         {"fs_rp", "fs_reordered_bp", "tp_bp", "baseline_prefetch"})
        out.push_back(fuzzConfig(scheme));
    Config refresh = fuzzConfig("fs_rp_powerdown");
    refresh.set("dram.refresh", true);
    out.push_back(refresh);
    Config overflow = fuzzConfig("fs_rp");
    overflow.set("fault.kind", "queue-overflow");
    out.push_back(overflow);
    Config cloud = fuzzConfig("fs_rp");
    cloud.set("workload", "cloud");
    cloud.set("traffic.process", "mmpp");
    cloud.set("traffic.rate", 6.0);
    cloud.set("traffic.clients", 16);
    out.push_back(cloud);
    return out;
}

void
expectStructured(const Restore &r, size_t payloadSize,
                 const std::string &what)
{
    ASSERT_TRUE(r.escaped.empty())
        << what << ": escaped the restore path as '" << r.escaped << "'";
    if (r.ok)
        return;
    EXPECT_TRUE(r.error.category == "snapshot-truncate" ||
                r.error.category == "snapshot-corrupt")
        << what << ": " << r.error.toString();
    EXPECT_LE(r.error.offset, payloadSize)
        << what << ": " << r.error.toString();
}

} // namespace

TEST(SnapshotFuzz, TruncationAtEverySectionBoundary)
{
    for (const Config &cfg : fuzzConfigs()) {
        const std::string payload = midRunPayload(cfg);
        const std::vector<size_t> cuts = sectionBoundaries(payload);
        ASSERT_GT(cuts.size(), 20u) << "section scan found too little";
        for (size_t cut : cuts) {
            const Restore r = restore(cfg, payload.substr(0, cut));
            const std::string what = cfg.getString("scheme", "?") +
                                     " cut at " + std::to_string(cut);
            expectStructured(r, cut, what);
            EXPECT_FALSE(r.ok) << what << ": truncated payload restored";
        }
    }
}

TEST(SnapshotFuzz, ResealedByteFlips)
{
    // Flips are spread evenly over sections (then uniformly inside
    // one), so small sections get as many as the cache lines do.
    Rng rng(0x5EED5A17ull);
    const unsigned flipsPerConfig = 50;
    unsigned restored = 0;
    unsigned rejected = 0;
    for (const Config &cfg : fuzzConfigs()) {
        const std::string payload = midRunPayload(cfg);
        std::vector<size_t> cuts = sectionBoundaries(payload);
        cuts.push_back(payload.size());
        for (unsigned i = 0; i < flipsPerConfig; ++i) {
            const size_t s = rng.below(cuts.size() - 1);
            const size_t at =
                cuts[s] + rng.below(cuts[s + 1] - cuts[s]);
            std::string mutant = payload;
            mutant[at] = static_cast<char>(
                mutant[at] ^ static_cast<char>(1 + rng.below(255)));
            const Restore r = restore(cfg, mutant);
            expectStructured(r, mutant.size(),
                             cfg.getString("scheme", "?") + " flip at " +
                                 std::to_string(at));
            ++(r.ok ? restored : rejected);
        }
    }
    // Both outcomes occur: flips in free-valued fields restore, flips
    // in structure are rejected.
    EXPECT_GT(restored, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(SnapshotFuzz, JournalEntryMutants)
{
    // The campaign journal's decoder (deserializeResult) gets the same
    // treatment: evenly spaced truncations and re-sealed byte flips.
    Config cfg = fuzzConfig("fs_rp");
    const ExperimentResult res = runExperiment(cfg);
    Serializer s;
    serializeResult(s, res);
    const std::string entry = s.take();

    const auto decode = [](const std::string &payload,
                           const std::string &what) {
        try {
            const std::string bytes = decodeSnapshot(
                encodeSnapshot(kFingerprint, payload), kFingerprint);
            Deserializer d(bytes);
            deserializeResult(d);
        } catch (const SerializeError &e) {
            EXPECT_TRUE(e.category == "snapshot-truncate" ||
                        e.category == "snapshot-corrupt")
                << what << ": " << e.toString();
            EXPECT_LE(e.offset, payload.size()) << what;
        } catch (const std::exception &e) {
            ADD_FAILURE() << what << ": escaped as '" << e.what() << "'";
        }
    };
    const size_t step = std::max<size_t>(1, entry.size() / 500);
    for (size_t cut = 0; cut < entry.size(); cut += step)
        decode(entry.substr(0, cut), "cut at " + std::to_string(cut));
    Rng rng(0x10A2A1ull);
    for (unsigned i = 0; i < 300; ++i) {
        std::string mutant = entry;
        const size_t at = rng.below(mutant.size());
        mutant[at] = static_cast<char>(
            mutant[at] ^ static_cast<char>(1 + rng.below(255)));
        decode(mutant, "flip at " + std::to_string(at));
    }
}
