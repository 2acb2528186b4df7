#include "util/serialize.hh"

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "util/logging.hh"

namespace memsec {

std::string
SerializeError::toString() const
{
    std::ostringstream os;
    os << category << " at byte " << offset << ": " << message;
    return os.str();
}

void
Serializer::putU32(uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void
Serializer::putU64(uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void
Serializer::putDouble(double v)
{
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "IEEE-754 double expected");
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(bits);
}

void
Serializer::putString(std::string_view v)
{
    putU64(v.size());
    buf_.append(v.data(), v.size());
}

void
Deserializer::need(size_t n) const
{
    if (data_.size() - pos_ < n) {
        throw SerializeError{
            pos_, "snapshot-truncate",
            "need " + std::to_string(n) + " bytes, have " +
                std::to_string(data_.size() - pos_)};
    }
}

void
Deserializer::fail(const std::string &message) const
{
    throw SerializeError{pos_, "snapshot-corrupt", message};
}

void
Deserializer::length(uint64_t &n)
{
    const uint64_t at = pos_;
    n = getU64();
    if (n > remaining()) {
        throw SerializeError{
            at, "snapshot-truncate",
            "length " + std::to_string(n) + " exceeds the " +
                std::to_string(remaining()) + " bytes left"};
    }
}

uint8_t
Deserializer::getU8()
{
    need(1);
    return static_cast<uint8_t>(data_[pos_++]);
}

uint32_t
Deserializer::getU32()
{
    need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(
                 static_cast<uint8_t>(data_[pos_ + i]))
             << (8 * i);
    pos_ += 4;
    return v;
}

uint64_t
Deserializer::getU64()
{
    need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(
                 static_cast<uint8_t>(data_[pos_ + i]))
             << (8 * i);
    pos_ += 8;
    return v;
}

bool
Deserializer::getBool()
{
    const uint8_t v = getU8();
    if (v > 1)
        fail("bool byte is " + std::to_string(v));
    return v != 0;
}

double
Deserializer::getDouble()
{
    const uint64_t bits = getU64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
Deserializer::getString()
{
    const uint64_t len = getU64();
    need(len);
    std::string s(data_.substr(pos_, len));
    pos_ += len;
    return s;
}

void
Deserializer::section(std::string_view tag)
{
    const uint64_t at = pos_;
    const std::string got = getString();
    if (got != tag) {
        throw SerializeError{
            at, "snapshot-corrupt",
            "expected section '" + std::string(tag) + "', found '" +
                got + "'"};
    }
}

namespace {

std::array<uint32_t, 256>
makeCrc32cTable()
{
    std::array<uint32_t, 256> table{};
    for (uint32_t n = 0; n < 256; ++n) {
        uint32_t c = n;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
        table[n] = c;
    }
    return table;
}

} // namespace

uint32_t
crc32c(const void *data, size_t len, uint32_t seed)
{
    static const std::array<uint32_t, 256> table = makeCrc32cTable();
    const auto *p = static_cast<const uint8_t *>(data);
    uint32_t c = seed ^ 0xFFFFFFFFu;
    for (size_t i = 0; i < len; ++i)
        c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

std::string
encodeSnapshot(std::string_view fingerprint, std::string_view payload)
{
    Serializer s;
    s.putString(fingerprint);
    std::string container(kSnapshotMagic, 8);
    Serializer head;
    head.putU32(kSnapshotVersion);
    container += head.data();
    container += s.data();
    Serializer tail;
    tail.putU64(payload.size());
    tail.putU32(crc32c(payload));
    container += tail.data();
    container.append(payload.data(), payload.size());
    return container;
}

std::string
decodeSnapshot(std::string_view bytes, std::string_view expectedFingerprint)
{
    if (bytes.size() < 8) {
        throw SerializeError{0, "snapshot-truncate",
                             "file shorter than the 8-byte magic"};
    }
    if (bytes.compare(0, 8, kSnapshotMagic, 8) != 0)
        throw SerializeError{0, "snapshot-corrupt", "bad magic"};

    Deserializer d(bytes.substr(8));
    const uint32_t version = d.getU32();
    if (version != kSnapshotVersion) {
        throw SerializeError{
            8, "snapshot-version",
            "container version " + std::to_string(version) +
                ", expected " + std::to_string(kSnapshotVersion)};
    }
    const uint64_t fpAt = 8 + d.offset();
    const std::string fp = d.getString();
    if (!expectedFingerprint.empty() && fp != expectedFingerprint) {
        throw SerializeError{
            fpAt, "snapshot-stale",
            "snapshot fingerprint '" + fp + "' does not match '" +
                std::string(expectedFingerprint) + "'"};
    }
    const uint64_t len = d.getU64();
    const uint32_t crc = d.getU32();
    if (d.remaining() < len) {
        throw SerializeError{
            8 + d.offset(), "snapshot-truncate",
            "payload declares " + std::to_string(len) + " bytes, " +
                std::to_string(d.remaining()) + " present"};
    }
    if (d.remaining() > len) {
        throw SerializeError{8 + d.offset() + len, "snapshot-corrupt",
                             "trailing bytes after payload"};
    }
    std::string payload(
        bytes.substr(8 + static_cast<size_t>(d.offset()), len));
    const uint32_t got = crc32c(payload);
    if (got != crc) {
        throw SerializeError{8 + d.offset(), "snapshot-corrupt",
                             "payload CRC mismatch"};
    }
    return payload;
}

bool
writeFileAtomic(const std::string &path, std::string_view bytes)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            warn("cannot open {} for writing", tmp);
            return false;
        }
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        out.flush();
        if (!out) {
            warn("short write to {}", tmp);
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("cannot rename {} to {}", tmp, path);
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
ensureDirectory(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        warn("cannot create directory {}: {}", dir, ec.message());
        return false;
    }
    return true;
}

bool
readFileBytes(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

} // namespace memsec
