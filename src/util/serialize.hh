/**
 * @file
 * Versioned binary serialization for deterministic snapshots.
 *
 * Every snapshot is a little-endian byte stream framed in a container
 * with a magic, a format version, the canonical config fingerprint of
 * the run that produced it, and a CRC32C over the payload. Decoding
 * never trusts the input: truncation, bit flips, version skew and
 * fingerprint mismatches all surface as SerializeError with a
 * structured category, so the caller can report a recoverable
 * SimError instead of restoring garbage state.
 *
 * Scalar encodings are fixed-width little-endian regardless of host
 * byte order; doubles are stored as their IEEE-754 bit pattern so a
 * restore round-trips hexfloat-exactly.
 *
 * Layouts are stated once. Serializer and Deserializer share a set of
 * same-named transfer operations, so each checkpointed type writes one
 * function template over the archive,
 *
 *     template <class Self, class Ar>
 *     static void transfer(Self &self, Ar &a);
 *
 * instantiated as (const T, Serializer) to save and (T, Deserializer)
 * to restore. The operations are:
 *  - fields: u32, u64, i64, flag, f64, str, and enumU8 (a
 *    one-byte enum, range-checked on restore);
 *  - counts: count(n, what), a size fixed by the config that restore
 *    verifies, and length(n), a size read back before the elements it
 *    counts (restore rejects one the remaining bytes cannot hold);
 *  - sequences: fixed(c, what, each) over a config-sized container
 *    restored in place, seq(c, each) over a variable-length one
 *    (restore clears it and appends default-constructed elements),
 *    and map(m, each) over key/value pairs;
 *  - nested(x): x's own transfer(), or its virtual saveState /
 *    restoreState for polymorphic components;
 *  - section(tag): a named layout check; restore fails at the first
 *    marker that does not match;
 *  - check(cond, what): restore-only validation, failing as
 *    "snapshot-corrupt" at the current offset; a no-op when saving.
 * `Ar::kLoading` guards the rest of the restore-only work (rebuilding
 * derived state) inside a transfer.
 */

#ifndef MEMSEC_UTIL_SERIALIZE_HH
#define MEMSEC_UTIL_SERIALIZE_HH

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace memsec {

/** Snapshot container format version; bump on any layout change. */
constexpr uint32_t kSnapshotVersion = 2;

/** Magic prefix of every snapshot container file. */
constexpr char kSnapshotMagic[9] = "MSECSNAP";

/**
 * Structured decode failure. `category` is one of the stable strings
 * used as SimError categories by the durability layer:
 *  - "snapshot-truncate": input ended before the declared content
 *  - "snapshot-corrupt":  magic/CRC/structure mismatch (bit damage)
 *  - "snapshot-version":  container version != kSnapshotVersion
 *  - "snapshot-stale":    embedded fingerprint != expected fingerprint
 */
struct SerializeError
{
    uint64_t offset = 0;  ///< byte offset where decoding failed
    std::string category; ///< stable machine-readable reason
    std::string message;  ///< human-readable detail

    std::string toString() const;
};

/** Append-only little-endian encoder. */
class Serializer
{
  public:
    static constexpr bool kLoading = false;

    // ---- transfer operations (file comment) ----
    void u32(uint32_t v) { putU32(v); }
    void u64(uint64_t v) { putU64(v); }
    void i64(int64_t v) { putI64(v); }
    void flag(bool v) { putBool(v); }
    void f64(double v) { putDouble(v); }
    void str(std::string_view v) { putString(v); }
    template <class E>
    void enumU8(E v, E, const char *) { putU8(static_cast<uint8_t>(v)); }
    void length(uint64_t n) { putU64(n); }
    void count(uint64_t n, const char *) { putU64(n); }
    void check(bool, const char *) {}
    template <class C, class F>
    void
    fixed(const C &c, const char *what, F &&each)
    {
        count(c.size(), what);
        for (size_t i = 0; i < c.size(); ++i)
            each(c[i]);
    }
    template <class C, class F>
    void
    seq(const C &c, F &&each)
    {
        length(c.size());
        for (size_t i = 0; i < c.size(); ++i)
            each(c[i]);
    }
    template <class M, class F>
    void
    map(const M &m, F &&each)
    {
        length(m.size());
        for (const auto &[k, v] : m)
            each(k, v);
    }
    template <class T>
    void
    nested(const T &x)
    {
        if constexpr (requires { T::transfer(x, *this); })
            T::transfer(x, *this);
        else
            x.saveState(*this);
    }

    // ---- raw encoding ----
    void putU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    void putU32(uint32_t v);
    void putU64(uint64_t v);
    void putI64(int64_t v) { putU64(static_cast<uint64_t>(v)); }
    void putBool(bool v) { putU8(v ? 1 : 0); }
    /** IEEE-754 bit pattern; round-trips exactly. */
    void putDouble(double v);
    /** u64 length followed by raw bytes. */
    void putString(std::string_view v);

    /**
     * Emit a named section marker, a layout check: the matching
     * Deserializer::section call verifies it, so bytes laid out
     * differently (damage, or a layout change made without a
     * kSnapshotVersion bump) fail at the first boundary that differs
     * instead of silently mis-decoding everything after it.
     */
    void section(std::string_view tag) { putString(tag); }

    const std::string &data() const { return buf_; }
    std::string take() { return std::move(buf_); }
    size_t size() const { return buf_.size(); }

  private:
    std::string buf_;
};

/** Bounds-checked little-endian decoder; throws SerializeError. */
class Deserializer
{
  public:
    static constexpr bool kLoading = true;

    explicit Deserializer(std::string_view data) : data_(data) {}

    // ---- transfer operations (file comment) ----
    template <std::integral T>
    void u32(T &v) { v = static_cast<T>(getU32()); }
    template <std::integral T>
    void u64(T &v) { v = static_cast<T>(getU64()); }
    template <std::integral T>
    void i64(T &v) { v = static_cast<T>(getI64()); }
    void flag(bool &v) { v = getBool(); }
    void f64(double &v) { v = getDouble(); }
    void str(std::string &v) { v = getString(); }
    template <class E>
    void
    enumU8(E &v, E last, const char *what)
    {
        const uint8_t b = getU8();
        if (b > static_cast<uint8_t>(last))
            fail(std::string(what) + " out of range: " +
                 std::to_string(b));
        v = static_cast<E>(b);
    }
    /** Every element takes at least one byte, so a length the rest of
     *  the input cannot hold is a truncation (and never allocates). */
    void length(uint64_t &n);
    void
    count(uint64_t n, const char *what)
    {
        if (getU64() != n)
            fail(what);
    }
    void
    check(bool ok, const char *what)
    {
        if (!ok)
            fail(what);
    }
    template <class C, class F>
    void
    fixed(C &c, const char *what, F &&each)
    {
        count(c.size(), what);
        for (auto &e : c)
            each(e);
    }
    template <class C, class F>
    void
    seq(C &c, F &&each)
    {
        uint64_t n = 0;
        length(n);
        c.clear();
        for (uint64_t i = 0; i < n; ++i) {
            typename C::value_type e{};
            each(e);
            if constexpr (requires { c.push_back(std::move(e)); })
                c.push_back(std::move(e));
            else
                c.push(e);
        }
    }
    template <class M, class F>
    void
    map(M &m, F &&each)
    {
        uint64_t n = 0;
        length(n);
        m.clear();
        for (uint64_t i = 0; i < n; ++i) {
            typename M::key_type k{};
            typename M::mapped_type v{};
            each(k, v);
            m[std::move(k)] = std::move(v);
        }
    }
    template <class T>
    void
    nested(T &x)
    {
        if constexpr (requires { T::transfer(x, *this); })
            T::transfer(x, *this);
        else
            x.restoreState(*this);
    }

    // ---- raw decoding ----

    uint8_t getU8();
    uint32_t getU32();
    uint64_t getU64();
    int64_t getI64() { return static_cast<int64_t>(getU64()); }
    bool getBool();
    double getDouble();
    std::string getString();

    /** Verify a section marker written by Serializer::section. */
    void section(std::string_view tag);

    uint64_t offset() const { return pos_; }
    size_t remaining() const { return data_.size() - pos_; }
    bool atEnd() const { return pos_ == data_.size(); }

    /** Throw a "snapshot-corrupt" error at the current offset. */
    [[noreturn]] void fail(const std::string &message) const;

  private:
    /** Ensure n more bytes exist; throws "snapshot-truncate". */
    void need(size_t n) const;

    std::string_view data_;
    size_t pos_ = 0;
};

/** CRC32C (Castagnoli, reflected 0x82F63B78), software table. */
uint32_t crc32c(const void *data, size_t len, uint32_t seed = 0);
inline uint32_t
crc32c(std::string_view s, uint32_t seed = 0)
{
    return crc32c(s.data(), s.size(), seed);
}

/**
 * Wrap a payload in the snapshot container:
 *   magic(8) | version u32 | fingerprint string | payload-length u64 |
 *   crc32c(payload) u32 | payload bytes.
 */
std::string encodeSnapshot(std::string_view fingerprint,
                           std::string_view payload);

/**
 * Unwrap a snapshot container, verifying magic, version, fingerprint
 * (when `expectedFingerprint` is nonempty) and payload CRC. Throws
 * SerializeError with the categories documented above.
 */
std::string decodeSnapshot(std::string_view bytes,
                           std::string_view expectedFingerprint);

/**
 * Write bytes to `path` atomically (tmp file + rename) so a crash
 * mid-write can never leave a half-written snapshot under the final
 * name. Returns false (with a warning) on I/O failure — durability is
 * best-effort; the simulation itself must not die because a disk did.
 */
bool writeFileAtomic(const std::string &path, std::string_view bytes);

/** Read a whole file; returns false if it cannot be opened. */
bool readFileBytes(const std::string &path, std::string &out);

/**
 * Create `dir` (and parents) if missing. Returns false (with a
 * warning) on failure; an existing directory is success.
 */
bool ensureDirectory(const std::string &dir);

} // namespace memsec

#endif // MEMSEC_UTIL_SERIALIZE_HH
