/**
 * @file
 * The simulator's one binary codec (DESIGN.md §7). Every binary format
 * — snapshots, RunStats blobs, BvhIo, bundle files, telemetry .tsbin
 * files and the farm's TRTF frames — is written by a Serializer and
 * read by a Deserializer.
 *
 * Integers and floats are little-endian: the codec copies host bytes
 * and static_asserts that the host is little-endian. PODs are copied
 * whole, so their padding bytes travel as they are.
 *
 * Every read is checked against the bytes left before anything is
 * allocated, so a corrupt length prefix throws SnapshotError instead
 * of requesting gigabytes. A Serializer writes to its own buffer or
 * straight to an ostream; a Deserializer reads a byte range or
 * straight from an istream, so large files move between disk and
 * their destination vectors without a staging copy.
 *
 * Snapshots nest chunks: a 4-byte ASCII tag + u64 payload size +
 * payload; sizes are backpatched by endChunk(). The Deserializer
 * verifies the tag on entry and the exact end position on exit, so any
 * drift between a component's saveState and loadState (a field added
 * on one side only) fails loudly at the owning chunk instead of
 * corrupting everything after it.
 */

#ifndef TRT_SNAPSHOT_SERIALIZER_HH
#define TRT_SNAPSHOT_SERIALIZER_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace trt
{

/** Any decode or snapshot capture/restore failure: truncation, a
 *  length prefix the input cannot fill, CRC mismatch,
 *  tag/version/fingerprint mismatch, schema drift. Formats other than
 *  snapshots map it to their own documented rejection. */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** CRC-32 (IEEE 802.3 polynomial, as zlib) over @p size bytes. */
uint32_t crc32(const void *data, size_t size, uint32_t seed = 0);

static_assert(std::endian::native == std::endian::little,
              "the binary formats are little-endian host bytes");

/** Append-only binary writer with nested size-backpatched chunks. */
class Serializer
{
  public:
    /** Encode into bytes(). */
    Serializer() = default;

    /** Encode straight into @p os. Chunks need backpatching and are
     *  only available to the buffered form. */
    explicit Serializer(std::ostream &os) : os_(&os) {}

    void
    u8(uint8_t v)
    {
        pod(v);
    }

    void
    b(bool v)
    {
        u8(v ? 1 : 0);
    }

    void
    u32(uint32_t v)
    {
        pod(v);
    }

    void
    u64(uint64_t v)
    {
        pod(v);
    }

    void
    f32(float v)
    {
        pod(v);
    }

    /** Raw bytes of any trivially-copyable value. */
    template <typename T>
    void
    pod(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        raw(&v, sizeof(T));
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        raw(s.data(), s.size());
    }

    /** Length-prefixed vector of PODs, copied in one piece. */
    template <typename T>
    void
    vecPod(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        u64(v.size());
        raw(v.data(), v.size() * sizeof(T));
    }

    /** @p n bytes verbatim. */
    void
    raw(const void *p, size_t n)
    {
        if (os_) {
            streamWrite(p, n);
            return;
        }
        size_t at = buf_.size();
        buf_.resize(at + n);
        if (n)
            std::memcpy(buf_.data() + at, p, n);
    }

    /** Open a chunk; @p tag must be exactly 4 ASCII characters. */
    void beginChunk(const char *tag);
    /** Close the innermost chunk, backpatching its size. */
    void endChunk();

    const std::vector<uint8_t> &
    bytes() const
    {
        return buf_;
    }

    std::vector<uint8_t>
    take()
    {
        return std::move(buf_);
    }

  private:
    /** The stream path stays out of line: every saveState inlines
     *  raw(), and with the stream write inline too, LTO inlined the
     *  simulator's hot paths differently and the 2-thread large_mt
     *  benchmark workload ran about 15 % slower (4-vCPU x86 host). */
    [[gnu::noinline]] void streamWrite(const void *p, size_t n);

    std::ostream *os_ = nullptr;
    std::vector<uint8_t> buf_;
    std::vector<size_t> chunkStack_; //!< Offsets of open size fields.
};

/** Bounds- and schema-checked reader for Serializer output. */
class Deserializer
{
  public:
    Deserializer(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {
    }

    explicit Deserializer(const std::vector<uint8_t> &buf)
        : Deserializer(buf.data(), buf.size())
    {
    }

    explicit Deserializer(const std::string &buf)
        : Deserializer(reinterpret_cast<const uint8_t *>(buf.data()),
                       buf.size())
    {
    }

    /** Decode straight from @p is: its bytes from the current position
     *  to the end. A failed or unseekable stream has no bytes, so
     *  every read throws. */
    explicit Deserializer(std::istream &is);

    uint8_t
    u8()
    {
        return pod<uint8_t>();
    }

    bool
    b()
    {
        uint8_t v = u8();
        if (v > 1)
            throw SnapshotError("snapshot: bool field out of range");
        return v != 0;
    }

    uint32_t
    u32()
    {
        return pod<uint32_t>();
    }

    uint64_t
    u64()
    {
        return pod<uint64_t>();
    }

    float
    f32()
    {
        return pod<float>();
    }

    template <typename T>
    T
    pod()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T v;
        raw(&v, sizeof(T));
        return v;
    }

    /** A u64 element count whose elements encode to @p elemBytes or
     *  more each; throws if the bytes left cannot hold them, so the
     *  count is safe to reserve. */
    uint64_t
    count(size_t elemBytes)
    {
        uint64_t n = u64();
        if (n > remaining() / elemBytes)
            throw SnapshotError("snapshot: length prefix exceeds the "
                                "bytes left");
        return n;
    }

    std::string
    str()
    {
        std::string s(size_t(count(1)), '\0');
        raw(s.data(), s.size());
        return s;
    }

    /** Length-prefixed vector of PODs, copied in one piece. */
    template <typename T>
    std::vector<T>
    vecPod()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::vector<T> v(size_t(count(sizeof(T))));
        raw(v.data(), v.size() * sizeof(T));
        return v;
    }

    /** Read @p n bytes into @p out. */
    void
    raw(void *out, size_t n)
    {
        if (n > remaining())
            throw SnapshotError("snapshot: truncated stream");
        if (is_)
            streamRead(out, n);
        else if (n)
            std::memcpy(out, data_ + pos_, n);
        pos_ += n;
    }

    /** Enter a chunk, verifying its tag. */
    void beginChunk(const char *tag);
    /** Leave the innermost chunk, verifying every byte was consumed. */
    void endChunk();

    size_t
    remaining() const
    {
        return size_ - pos_;
    }

    bool
    atEnd() const
    {
        return pos_ == size_;
    }

  private:
    /** Out of line for the same reason as Serializer::streamWrite. */
    [[gnu::noinline]] void streamRead(void *out, size_t n);

    std::istream *is_ = nullptr;
    const uint8_t *data_ = nullptr;
    size_t size_ = 0;
    size_t pos_ = 0;
    std::vector<size_t> chunkEnds_; //!< Expected end offsets.
};

} // namespace trt

#endif // TRT_SNAPSHOT_SERIALIZER_HH
