/**
 * @file
 * Open-addressed, linear-probed set of simulated line addresses (0 =
 * empty slot; simulated addresses are well above 0). A treelet prefetch
 * inserts ~100 lines and every demand access probes the set, so the
 * node allocation and pointer chasing of a std::unordered_set are a
 * real cost on that path. Erasure backward-shifts, keeping probe
 * chains intact with no tombstones — clear() never has to skip dead
 * slots and the load factor only counts live keys.
 */

#ifndef TRT_GPU_LINE_SET_HH
#define TRT_GPU_LINE_SET_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace trt
{

/** Allocation-light hash set of nonzero uint64 keys. */
class LineSet
{
  public:
    LineSet() : keys_(kMinCapacity, 0), mask_(kMinCapacity - 1) {}

    /** True when @p key was absent and has been added. */
    bool
    insert(uint64_t key)
    {
        std::size_t i = hashOf(key) & mask_;
        while (keys_[i] != 0) {
            if (keys_[i] == key)
                return false;
            i = (i + 1) & mask_;
        }
        keys_[i] = key;
        if (++size_ * 4 > keys_.size() * 3)
            grow();
        return true;
    }

    /** True when @p key was present and has been removed. */
    bool
    erase(uint64_t key)
    {
        std::size_t i = hashOf(key) & mask_;
        while (keys_[i] != key) {
            if (keys_[i] == 0)
                return false;
            i = (i + 1) & mask_;
        }
        keys_[i] = 0;
        size_--;
        std::size_t j = i;
        for (;;) {
            j = (j + 1) & mask_;
            if (keys_[j] == 0)
                return true;
            std::size_t k = hashOf(keys_[j]) & mask_;
            // Shift j back unless its home k lies cyclically in
            // (i, j] — then the new hole doesn't break its chain.
            bool reachable = (i < j) ? (k > i && k <= j)
                                     : (k > i || k <= j);
            if (!reachable) {
                keys_[i] = keys_[j];
                keys_[j] = 0;
                i = j;
            }
        }
    }

    bool
    contains(uint64_t key) const
    {
        std::size_t i = hashOf(key) & mask_;
        while (keys_[i] != 0) {
            if (keys_[i] == key)
                return true;
            i = (i + 1) & mask_;
        }
        return false;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return keys_.size(); }

    /** Drop every key, keeping the current capacity. */
    void
    clear()
    {
        std::fill(keys_.begin(), keys_.end(), 0);
        size_ = 0;
    }

    /** Live keys in ascending order (snapshotting, tests). */
    std::vector<uint64_t>
    sortedKeys() const
    {
        std::vector<uint64_t> out;
        out.reserve(size_);
        for (uint64_t k : keys_)
            if (k != 0)
                out.push_back(k);
        std::sort(out.begin(), out.end());
        return out;
    }

  private:
    static constexpr std::size_t kMinCapacity = 1024;

    static std::size_t
    hashOf(uint64_t key)
    {
        return std::size_t((key * 0x9E3779B97F4A7C15ull) >> 32);
    }

    void
    grow()
    {
        std::vector<uint64_t> old = std::move(keys_);
        keys_.assign(old.size() * 2, 0);
        mask_ = keys_.size() - 1;
        for (uint64_t key : old) {
            if (key == 0)
                continue;
            std::size_t i = hashOf(key) & mask_;
            while (keys_[i] != 0)
                i = (i + 1) & mask_;
            keys_[i] = key;
        }
    }

    std::vector<uint64_t> keys_;
    std::size_t mask_;
    std::size_t size_ = 0;
};

} // namespace trt

#endif // TRT_GPU_LINE_SET_HH
