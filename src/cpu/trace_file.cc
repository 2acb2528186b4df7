#include "cpu/trace_file.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::cpu {

namespace {

constexpr char kTraceMagic[9] = "MSTRACE1";
constexpr uint32_t kTraceVersion = 1;
constexpr uint32_t kRecordsPerBlock = 4096;
constexpr size_t kRecordBytes = 16;
constexpr size_t kHeaderBytes = 8 + 4 + 4 + 8;

void
appendU32(std::string &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void
appendU64(std::string &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

uint32_t
readU32(const std::string &in, size_t at)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(
                 static_cast<unsigned char>(in[at + i]))
             << (8 * i);
    return v;
}

uint64_t
readU64(const std::string &in, size_t at)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(
                 static_cast<unsigned char>(in[at + i]))
             << (8 * i);
    return v;
}

} // namespace

std::string
TraceParseError::toString() const
{
    if (line > 0) {
        return "trace line " + std::to_string(line) + " (byte " +
               std::to_string(byteOffset) + "): " + message;
    }
    return "trace byte " + std::to_string(byteOffset) + ": " + message;
}

bool
tryParseTrace(const std::string &text, std::vector<TraceRecord> &out,
              TraceParseError &err)
{
    auto failAt = [&](int lineno, uint64_t offset,
                      const std::string &message) {
        err.line = lineno;
        err.byteOffset = offset;
        err.message = message;
        return false;
    };

    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    uint64_t offset = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const uint64_t lineStart = offset;
        offset += line.size() + 1; // +1 for the consumed '\n'
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        // Only genuinely blank lines may be skipped; a line with
        // content that fails to parse is a corrupt record, not noise.
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        std::istringstream ls(line);
        uint64_t gap;
        std::string kind;
        std::string addr;
        if (!(ls >> gap) || !(ls >> kind >> addr))
            return failAt(lineno, lineStart,
                          "expected '<gap> R|W <hex-addr>', got '" +
                              line + "'");
        if (gap > std::numeric_limits<uint32_t>::max())
            return failAt(lineno, lineStart,
                          "gap " + std::to_string(gap) + " out of range");
        if (kind != "R" && kind != "W")
            return failAt(lineno, lineStart,
                          "kind must be R or W, got '" + kind + "'");
        TraceRecord rec;
        rec.gap = static_cast<uint32_t>(gap);
        rec.isStore = kind == "W";
        char *end = nullptr;
        rec.addr = std::strtoull(addr.c_str(), &end, 16);
        if (end == addr.c_str() || *end != '\0')
            return failAt(lineno, lineStart, "bad address '" + addr + "'");
        out.push_back(rec);
    }
    return true;
}

std::vector<TraceRecord>
parseTrace(const std::string &text)
{
    std::vector<TraceRecord> out;
    TraceParseError err;
    if (!tryParseTrace(text, out, err))
        fatal("{}", err.toString());
    return out;
}

std::string
formatTrace(const std::vector<TraceRecord> &records)
{
    std::ostringstream os;
    os << "# memsec trace: <gap> R|W <hex-address>\n";
    for (const auto &r : records) {
        os << r.gap << " " << (r.isStore ? "W" : "R") << " " << std::hex
           << r.addr << std::dec << "\n";
    }
    return os.str();
}

bool
isBinaryTrace(const std::string &bytes)
{
    return bytes.size() >= 8 &&
           std::memcmp(bytes.data(), kTraceMagic, 8) == 0;
}

std::string
formatBinaryTrace(const std::vector<TraceRecord> &records)
{
    std::string out;
    out.reserve(kHeaderBytes +
                records.size() * kRecordBytes +
                8 * (records.size() / kRecordsPerBlock + 1));
    out.append(kTraceMagic, 8);
    appendU32(out, kTraceVersion);
    appendU32(out, kRecordsPerBlock);
    appendU64(out, records.size());

    size_t i = 0;
    while (i < records.size()) {
        const size_t n =
            std::min<size_t>(kRecordsPerBlock, records.size() - i);
        std::string payload;
        payload.reserve(n * kRecordBytes);
        for (size_t r = 0; r < n; ++r) {
            const TraceRecord &rec = records[i + r];
            appendU64(payload, rec.addr);
            appendU32(payload, rec.gap);
            payload.push_back(rec.isStore ? 1 : 0);
            payload.append(3, '\0');
        }
        appendU32(out, static_cast<uint32_t>(n));
        appendU32(out, crc32c(payload.data(), payload.size()));
        out += payload;
        i += n;
    }
    return out;
}

bool
tryParseBinaryTrace(const std::string &bytes,
                    std::vector<TraceRecord> &out, TraceParseError &err)
{
    auto failAt = [&](uint64_t offset, const std::string &message) {
        err.line = 0;
        err.byteOffset = offset;
        err.message = message;
        return false;
    };

    if (bytes.size() < kHeaderBytes)
        return failAt(bytes.size(), "truncated binary trace header");
    if (!isBinaryTrace(bytes))
        return failAt(0, "bad binary trace magic");
    const uint32_t version = readU32(bytes, 8);
    if (version != kTraceVersion)
        return failAt(8, "unsupported binary trace version " +
                             std::to_string(version));
    const uint32_t perBlock = readU32(bytes, 12);
    if (perBlock == 0)
        return failAt(12, "recordsPerBlock must be nonzero");
    const uint64_t total = readU64(bytes, 16);

    size_t at = kHeaderBytes;
    out.reserve(out.size() + total);
    uint64_t seen = 0;
    while (seen < total) {
        if (bytes.size() - at < 8)
            return failAt(at, "truncated block header");
        const uint32_t count = readU32(bytes, at);
        const uint32_t crc = readU32(bytes, at + 4);
        if (count == 0 || count > perBlock)
            return failAt(at, "bad block record count " +
                                  std::to_string(count));
        if (count > total - seen)
            return failAt(at, "block overruns declared record count");
        const size_t payloadBytes = size_t{count} * kRecordBytes;
        if (bytes.size() - at - 8 < payloadBytes)
            return failAt(at + 8, "truncated block payload");
        const char *payload = bytes.data() + at + 8;
        const uint32_t actual = crc32c(payload, payloadBytes);
        if (actual != crc)
            return failAt(at + 4, "block CRC mismatch");
        for (uint32_t r = 0; r < count; ++r) {
            const size_t off = at + 8 + size_t{r} * kRecordBytes;
            TraceRecord rec;
            rec.addr = readU64(bytes, off);
            rec.gap = readU32(bytes, off + 8);
            rec.isStore = bytes[off + 12] != 0;
            out.push_back(rec);
        }
        at += 8 + payloadBytes;
        seen += count;
    }
    if (at != bytes.size())
        return failAt(at, "trailing bytes after last block");
    return true;
}

FileTraceGenerator::FileTraceGenerator(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatal_if(!in, "cannot open trace file '{}'", path);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string bytes = buf.str();
    TraceParseError err;
    const bool ok = isBinaryTrace(bytes)
                        ? tryParseBinaryTrace(bytes, records_, err)
                        : tryParseTrace(bytes, records_, err);
    if (!ok)
        fatal("trace file '{}': {}", path, err.toString());
    fatal_if(records_.empty(), "trace file '{}' has no records", path);
}

FileTraceGenerator::FileTraceGenerator(std::vector<TraceRecord> records)
    : records_(std::move(records))
{
    fatal_if(records_.empty(), "empty trace");
}

TraceRecord
FileTraceGenerator::next()
{
    const TraceRecord rec = records_[pos_];
    if (++pos_ == records_.size()) {
        pos_ = 0;
        ++loops_;
    }
    return rec;
}

template <class Self, class Ar>
void
FileTraceGenerator::transfer(Self &self, Ar &a)
{
    a.section("filetrace");
    a.count(self.records_.size(), "trace record count mismatch");
    a.u64(self.pos_);
    a.check(self.pos_ < self.records_.size(),
            "trace replay position out of range");
    a.u64(self.loops_);
}

void
FileTraceGenerator::saveState(Serializer &s) const
{
    transfer(*this, s);
}

void
FileTraceGenerator::restoreState(Deserializer &d)
{
    transfer(*this, d);
}

void
recordTrace(TraceGenerator &gen, size_t count, const std::string &path,
            bool binary)
{
    std::vector<TraceRecord> records;
    records.reserve(count);
    for (size_t i = 0; i < count; ++i)
        records.push_back(gen.next());
    std::ofstream out(path, std::ios::binary);
    fatal_if(!out, "cannot open '{}' for writing", path);
    out << (binary ? formatBinaryTrace(records) : formatTrace(records));
}

} // namespace memsec::cpu
