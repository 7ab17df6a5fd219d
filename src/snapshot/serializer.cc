#include "snapshot/serializer.hh"

#include <array>

namespace trt
{

namespace
{

std::array<uint32_t, 256>
makeCrcTable()
{
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; i++) {
        uint32_t c = i;
        for (int k = 0; k < 8; k++)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[i] = c;
    }
    return t;
}

} // namespace

uint32_t
crc32(const void *data, size_t size, uint32_t seed)
{
    static const std::array<uint32_t, 256> table = makeCrcTable();
    uint32_t c = seed ^ 0xFFFFFFFFu;
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < size; i++)
        c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

void
Serializer::beginChunk(const char *tag)
{
    if (os_)
        throw SnapshotError("snapshot: chunks need a buffered Serializer");
    if (std::strlen(tag) != 4)
        throw SnapshotError("snapshot: chunk tag must be 4 chars");
    buf_.insert(buf_.end(), tag, tag + 4);
    chunkStack_.push_back(buf_.size());
    u64(0); // size placeholder
}

void
Serializer::endChunk()
{
    if (chunkStack_.empty())
        throw SnapshotError("snapshot: endChunk without beginChunk");
    size_t size_off = chunkStack_.back();
    chunkStack_.pop_back();
    uint64_t payload = buf_.size() - (size_off + 8);
    std::memcpy(buf_.data() + size_off, &payload, 8);
}

void
Serializer::streamWrite(const void *p, size_t n)
{
    os_->write(static_cast<const char *>(p), std::streamsize(n));
}

void
Deserializer::streamRead(void *out, size_t n)
{
    if (!is_->read(static_cast<char *>(out), std::streamsize(n)))
        throw SnapshotError("snapshot: stream read failed");
}

Deserializer::Deserializer(std::istream &is) : is_(&is)
{
    std::streamoff here = is.tellg();
    is.seekg(0, std::ios::end);
    std::streamoff end = is.tellg();
    is.seekg(here);
    if (here >= 0 && end >= here)
        size_ = size_t(end - here);
}

void
Deserializer::beginChunk(const char *tag)
{
    char got[5] = {};
    raw(got, 4);
    if (std::memcmp(got, tag, 4) != 0)
        throw SnapshotError(std::string("snapshot: expected chunk '") +
                            tag + "', found '" + got + "'");
    uint64_t payload = u64();
    if (payload > remaining())
        throw SnapshotError(std::string("snapshot: chunk '") + tag +
                            "' truncated");
    chunkEnds_.push_back(pos_ + size_t(payload));
}

void
Deserializer::endChunk()
{
    if (chunkEnds_.empty())
        throw SnapshotError("snapshot: endChunk without beginChunk");
    size_t end = chunkEnds_.back();
    chunkEnds_.pop_back();
    if (pos_ != end)
        throw SnapshotError(
            "snapshot: chunk size mismatch (schema drift between "
            "saveState and loadState)");
}

} // namespace trt
