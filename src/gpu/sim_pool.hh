/**
 * @file
 * Persistent worker pool for per-cycle SM tick fan-out. A simulation
 * forks and joins once per simulated cycle, so dispatch latency — not
 * throughput — is what matters: workers spin briefly on an epoch
 * counter before futex-parking (std::atomic::wait), and work is
 * distributed by a static modulo slice (no per-item atomics).
 *
 * The pool never affects simulation results: ticks executed here touch
 * only per-SM state, and the shared memory system is mutated solely in
 * the serial commit phase (see memsys.hh). Any thread count, including
 * running everything on the caller, yields bit-identical RunStats.
 */

#ifndef TRT_GPU_SIM_POOL_HH
#define TRT_GPU_SIM_POOL_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace trt
{

/** Spin-then-park fork/join pool; see file comment. The pool and
 *  each handoff counter (workers spin on epoch_, the caller on
 *  pending_) sit on their own cache lines: unaligned, the 2-thread
 *  benchmark moved by up to ~20 % with unrelated layout changes. */
class alignas(64) TickPool
{
  public:
    /** @param threads Total parallelism including the calling thread;
     *  spawns threads-1 workers. */
    explicit TickPool(uint32_t threads)
    {
        uint32_t workers = threads > 1 ? threads - 1 : 0;
        workers_.reserve(workers);
        for (uint32_t w = 0; w < workers; w++)
            workers_.emplace_back([this, w]() { workerLoop(w); });
    }

    ~TickPool()
    {
        stop_.store(true, std::memory_order_relaxed);
        epoch_.fetch_add(1, std::memory_order_release);
        epoch_.notify_all();
        for (auto &t : workers_)
            t.join();
    }

    TickPool(const TickPool &) = delete;
    TickPool &operator=(const TickPool &) = delete;

    uint32_t threads() const { return uint32_t(workers_.size()) + 1; }

    /**
     * Run fn(0) .. fn(n-1) across the pool and the calling thread;
     * returns when all calls completed. Calls must touch disjoint
     * state. The first exception thrown by any call is rethrown here
     * (after the join).
     */
    void
    run(uint32_t n, const std::function<void(uint32_t)> &fn)
    {
        if (workers_.empty() || n <= 1) {
            for (uint32_t i = 0; i < n; i++)
                fn(i);
            return;
        }
        n_ = n;
        fn_ = &fn;
        pending_.store(uint32_t(workers_.size()),
                       std::memory_order_relaxed);
        epoch_.fetch_add(1, std::memory_order_release);
        epoch_.notify_all();
        runSlice(uint32_t(workers_.size())); // caller takes the last lane
        for (uint32_t spins = 0;
             pending_.load(std::memory_order_acquire) != 0;) {
            if (++spins > kSpins) {
                uint32_t p = pending_.load(std::memory_order_acquire);
                if (p != 0)
                    pending_.wait(p);
                spins = 0;
            }
        }
        fn_ = nullptr;
        if (error_) {
            std::exception_ptr e = error_;
            error_ = nullptr;
            std::rethrow_exception(e);
        }
    }

  private:
    /** Spin budget before parking; small enough that an oversubscribed
     *  (or single-core) host falls through to the futex quickly. */
    static constexpr uint32_t kSpins = 2048;

    void
    runSlice(uint32_t lane)
    {
        const std::function<void(uint32_t)> *fn = fn_;
        uint32_t stride = threads();
        for (uint32_t i = lane; i < n_; i += stride) {
            try {
                (*fn)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lk(errMtx_);
                if (!error_)
                    error_ = std::current_exception();
            }
        }
    }

    void
    workerLoop(uint32_t lane)
    {
        uint64_t seen = 0;
        for (;;) {
            uint64_t e;
            uint32_t spins = 0;
            while ((e = epoch_.load(std::memory_order_acquire)) == seen) {
                if (++spins > kSpins) {
                    epoch_.wait(seen);
                    spins = 0;
                }
            }
            seen = e;
            if (stop_.load(std::memory_order_relaxed))
                return;
            runSlice(lane);
            pending_.fetch_sub(1, std::memory_order_release);
            pending_.notify_one();
        }
    }

    std::vector<std::thread> workers_;
    alignas(64) std::atomic<uint64_t> epoch_{0};
    alignas(64) std::atomic<uint32_t> pending_{0};
    std::atomic<bool> stop_{false};
    uint32_t n_ = 0;
    const std::function<void(uint32_t)> *fn_ = nullptr;
    std::mutex errMtx_;
    std::exception_ptr error_;
};

} // namespace trt

#endif // TRT_GPU_SIM_POOL_HH
