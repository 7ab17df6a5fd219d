/**
 * @file
 * Tests for the memory hierarchy: cache tag-store behaviour (LRU,
 * associativity, fully-associative O(1) path), and the MemorySystem's
 * latency model, MSHR-style merging, prefetch path, bandwidth, bypass
 * and per-class accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "memsys/cache.hh"
#include "memsys/memsys.hh"

namespace trt
{
namespace
{

TEST(Cache, HitAfterMiss)
{
    Cache c(1024, 0, 64);
    EXPECT_FALSE(c.access(0x100));
    EXPECT_TRUE(c.access(0x100));
    EXPECT_TRUE(c.access(0x13f)); // same 64B line
    EXPECT_FALSE(c.access(0x140)); // next line
}

TEST(Cache, LineAddr)
{
    Cache c(1024, 0, 64);
    EXPECT_EQ(c.lineAddr(0x100), 0x100u);
    EXPECT_EQ(c.lineAddr(0x13f), 0x100u);
    EXPECT_EQ(c.lineAddr(0x140), 0x140u);
}

TEST(Cache, FullyAssocLruEviction)
{
    // 4 lines capacity.
    Cache c(4 * 64, 0, 64);
    for (uint64_t i = 0; i < 4; i++)
        EXPECT_FALSE(c.access(i * 64));
    // Touch line 0 so line 1 is LRU.
    EXPECT_TRUE(c.access(0));
    EXPECT_FALSE(c.access(4 * 64)); // evicts line 1
    EXPECT_TRUE(c.access(0));
    EXPECT_FALSE(c.access(1 * 64)); // line 1 was evicted
}

TEST(Cache, SetAssocLruWithinSet)
{
    // 2 sets x 2 ways, 64B lines. Lines map to sets by tag parity.
    Cache c(4 * 64, 2, 64);
    // Set 0 gets tags 0, 2, 4 (all even).
    EXPECT_FALSE(c.access(0 * 64));
    EXPECT_FALSE(c.access(2 * 64));
    EXPECT_TRUE(c.access(0 * 64));  // touch: tag 2 becomes LRU
    EXPECT_FALSE(c.access(4 * 64)); // evicts tag 2
    EXPECT_TRUE(c.access(0 * 64));
    EXPECT_FALSE(c.access(2 * 64));
    // Set 1 (odd tags) unaffected throughout.
    EXPECT_FALSE(c.access(1 * 64));
    EXPECT_TRUE(c.access(1 * 64));
}

TEST(Cache, ProbeDoesNotTouchLru)
{
    Cache c(2 * 64, 0, 64);
    c.access(0);
    c.access(64); // LRU order: 0 older
    EXPECT_TRUE(c.probe(0));
    // Probe must not have promoted line 0: inserting a third line
    // still evicts line 0.
    c.access(128);
    EXPECT_FALSE(c.probe(0));
    EXPECT_TRUE(c.probe(64));
}

TEST(Cache, InstallWithoutAccess)
{
    Cache c(4 * 64, 0, 64);
    c.install(0x200);
    EXPECT_TRUE(c.probe(0x200));
    EXPECT_TRUE(c.access(0x200));
}

TEST(Cache, InvalidateAll)
{
    Cache c(4 * 64, 0, 64);
    c.access(0);
    c.access(64);
    c.invalidateAll();
    EXPECT_EQ(c.residentLines(), 0u);
    EXPECT_FALSE(c.access(0));
}

TEST(Cache, ResidentLinesCapped)
{
    Cache fa(8 * 64, 0, 64);
    Cache sa(8 * 64, 4, 64);
    for (uint64_t i = 0; i < 100; i++) {
        fa.access(i * 64);
        sa.access(i * 64);
    }
    EXPECT_EQ(fa.residentLines(), 8u);
    EXPECT_LE(sa.residentLines(), 8u);
}

/** residentLines() is maintained incrementally on fill/evict/invalid-
 *  ate (PR 3); it must always equal a probe count of every address the
 *  cache has ever seen, for both FA and SA organizations. */
TEST(Cache, ResidentLinesStaysInSyncWithTagStore)
{
    Cache fa(16 * 64, 0, 64);
    Cache sa(16 * 64, 4, 64);
    std::vector<uint64_t> touched;
    auto recount = [&](const Cache &c) {
        uint64_t n = 0;
        for (uint64_t a : touched)
            n += c.probe(a) ? 1 : 0;
        return n;
    };
    // Deterministic mixed access/install stream with reuse: LCG over a
    // 64-line working set against 16-line caches forces evictions.
    uint64_t x = 12345;
    for (int step = 0; step < 2000; step++) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        uint64_t addr = ((x >> 33) % 64) * 64;
        if (std::find(touched.begin(), touched.end(), addr) ==
            touched.end())
            touched.push_back(addr);
        if (step % 7 == 3) {
            fa.install(addr);
            sa.install(addr);
        } else {
            fa.access(addr);
            sa.access(addr);
        }
        if (step % 500 == 499) {
            EXPECT_EQ(fa.residentLines(), recount(fa)) << step;
            EXPECT_EQ(sa.residentLines(), recount(sa)) << step;
        }
    }
    EXPECT_EQ(fa.residentLines(), recount(fa));
    EXPECT_EQ(sa.residentLines(), recount(sa));
    EXPECT_EQ(fa.residentLines(), 16u); // full after heavy traffic
    fa.invalidateAll();
    sa.invalidateAll();
    EXPECT_EQ(fa.residentLines(), 0u);
    EXPECT_EQ(sa.residentLines(), 0u);
    EXPECT_EQ(recount(fa), 0u);
    EXPECT_EQ(recount(sa), 0u);
}

MemConfig
smallConfig()
{
    MemConfig mc;
    mc.numL1s = 2;
    mc.lineBytes = 64;
    mc.l1Bytes = 1024;
    mc.l2Bytes = 8192;
    mc.l2Ways = 4;
    return mc;
}

TEST(MemorySystem, LatencyLevels)
{
    MemConfig mc = smallConfig();
    MemorySystem mem(mc);

    // Cold: full DRAM path.
    auto a = mem.read(1000, 0, 0x1000, 64, MemClass::BvhNode);
    EXPECT_FALSE(a.l1Hit);
    EXPECT_GT(a.readyCycle,
              1000 + mc.l2HitLatency + mc.dramLatency - 1);

    // Warm L1 (after the fill has completed).
    uint64_t later = a.readyCycle + 10;
    auto b = mem.read(later, 0, 0x1000, 64, MemClass::BvhNode);
    EXPECT_TRUE(b.l1Hit);
    EXPECT_EQ(b.readyCycle, later + mc.l1HitLatency);

    // Other SM: L1 miss, L2 hit.
    auto c = mem.read(later, 1, 0x1000, 64, MemClass::BvhNode);
    EXPECT_FALSE(c.l1Hit);
    EXPECT_EQ(c.readyCycle, later + mc.l2HitLatency);
}

TEST(MemorySystem, MshrMergeWhileInFlight)
{
    MemConfig mc = smallConfig();
    MemorySystem mem(mc);
    auto a = mem.read(0, 0, 0x2000, 64, MemClass::BvhNode);
    // Second access to the same line while the fill is in flight must
    // wait for the fill, not report an instant L1 hit.
    auto b = mem.read(5, 0, 0x2000, 64, MemClass::BvhNode);
    EXPECT_EQ(b.readyCycle, a.readyCycle);
    // And not issue a second DRAM access.
    EXPECT_EQ(mem.classStats(MemClass::BvhNode).dramAccesses, 1u);
}

TEST(MemorySystem, MultiLineRequest)
{
    MemConfig mc = smallConfig();
    MemorySystem mem(mc);
    // 200 bytes spanning 4 lines.
    mem.read(0, 0, 0x3000, 200, MemClass::Triangle);
    EXPECT_EQ(mem.classStats(MemClass::Triangle).l1Accesses, 4u);
}

TEST(MemorySystem, DramBandwidthQueues)
{
    MemConfig mc = smallConfig();
    mc.dramBytesPerCycle = 1.0; // 64 cycles per line
    MemorySystem mem(mc);
    auto a = mem.read(0, 0, 0x10000, 64, MemClass::BvhNode);
    auto b = mem.read(0, 0, 0x20000, 64, MemClass::BvhNode);
    // Second distinct line must queue behind the first.
    EXPECT_GE(b.readyCycle, a.readyCycle + 63);
}

TEST(MemorySystem, PrefetchInstallsAndDemandWaits)
{
    MemConfig mc = smallConfig();
    MemorySystem mem(mc);
    // Single line: the returned ready cycle is that line's fill time.
    uint64_t ready = mem.prefetchL1(0, 0, 0x4000, 64, MemClass::BvhNode);
    EXPECT_GT(ready, 0u);
    EXPECT_TRUE(mem.l1Probe(0, 0x4000));
    // Demand access before the fill completes waits for it...
    auto a = mem.read(10, 0, 0x4000, 64, MemClass::BvhNode);
    EXPECT_GE(a.readyCycle, ready);
    // ...and after completion it is a plain L1 hit.
    auto b = mem.read(ready + 5, 0, 0x4000, 64, MemClass::BvhNode);
    EXPECT_EQ(b.readyCycle, ready + 5 + mc.l1HitLatency);
}

TEST(MemorySystem, PrefetchSkipsResidentLines)
{
    MemConfig mc = smallConfig();
    MemorySystem mem(mc);
    mem.read(0, 0, 0x5000, 64, MemClass::BvhNode);
    uint64_t dram_before =
        mem.classStats(MemClass::BvhNode).dramAccesses;
    mem.prefetchL1(10000, 0, 0x5000, 64, MemClass::BvhNode);
    EXPECT_EQ(mem.classStats(MemClass::BvhNode).dramAccesses,
              dram_before);
}

TEST(MemorySystem, BypassL1DoesNotTouchL1)
{
    MemConfig mc = smallConfig();
    MemorySystem mem(mc);
    mem.read(0, 0, 0x6000, 64, MemClass::RayData, true);
    EXPECT_EQ(mem.classStats(MemClass::RayData).l1Accesses, 0u);
    EXPECT_EQ(mem.classStats(MemClass::RayData).l2Accesses, 1u);
    EXPECT_FALSE(mem.l1Probe(0, 0x6000));
}

TEST(MemorySystem, ReservedL2Partition)
{
    MemConfig mc = smallConfig();
    mc.l2ReservedBytes = 4096;
    MemorySystem mem(mc);
    // Ray data repeatedly accessed stays resident in the reserved
    // partition even while BVH traffic would have evicted it.
    mem.read(0, 0, 0x7000, 64, MemClass::RayData, true);
    for (uint64_t i = 0; i < 200; i++)
        mem.read(100 + i, 0, 0x100000 + i * 64, 64, MemClass::BvhNode);
    uint64_t misses_before =
        mem.classStats(MemClass::RayData).l2Misses;
    mem.read(100000, 0, 0x7000, 64, MemClass::RayData, true);
    EXPECT_EQ(mem.classStats(MemClass::RayData).l2Misses, misses_before);
}

TEST(MemorySystem, WritesConsumeBandwidthOnly)
{
    MemConfig mc = smallConfig();
    MemorySystem mem(mc);
    mem.write(0, 0, 0x8000, 128, MemClass::CtaState);
    const auto &st = mem.classStats(MemClass::CtaState);
    EXPECT_EQ(st.writes, 1u);
    EXPECT_EQ(st.dramWriteBytes, 128u);
    EXPECT_EQ(st.l1Accesses, 0u);
}

TEST(MemorySystem, ClassAccountingIsSeparate)
{
    MemConfig mc = smallConfig();
    MemorySystem mem(mc);
    mem.read(0, 0, 0x9000, 64, MemClass::BvhNode);
    mem.read(0, 1, 0xa000, 64, MemClass::Triangle);
    mem.read(0, 0, 0xb000, 64, MemClass::Shader);
    EXPECT_EQ(mem.classStats(MemClass::BvhNode).l1Accesses, 1u);
    EXPECT_EQ(mem.classStats(MemClass::Triangle).l1Accesses, 1u);
    EXPECT_EQ(mem.classStats(MemClass::Shader).l1Accesses, 1u);
    EXPECT_EQ(mem.totalStats().l1Accesses, 3u);
}

TEST(MemorySystem, BvhMissCounters)
{
    MemConfig mc = smallConfig();
    MemorySystem mem(mc);
    mem.read(0, 0, 0xc000, 64, MemClass::BvhNode);    // miss
    mem.read(5000, 0, 0xc000, 64, MemClass::BvhNode); // hit
    mem.read(5000, 0, 0xd000, 64, MemClass::Triangle); // miss
    const MemClassStats &n = mem.classStats(MemClass::BvhNode);
    const MemClassStats &t = mem.classStats(MemClass::Triangle);
    EXPECT_EQ(n.l1Accesses, 2u);
    EXPECT_EQ(n.l1Misses, 1u);
    EXPECT_EQ(t.l1Accesses, 1u);
    EXPECT_EQ(t.l1Misses, 1u);
}

TEST(MemorySystem, PortImmediateMatchesPlainRead)
{
    MemConfig mc = smallConfig();
    MemorySystem serial(mc);
    MemorySystem ported(mc);

    for (uint64_t i = 0; i < 50; i++) {
        uint64_t now = i * 7;
        uint64_t addr = 0x1000 + (i % 8) * 64;
        auto a = serial.read(now, 0, addr, 64, MemClass::BvhNode);
        uint64_t ready = 0;
        MemTicket t = ported.port(0).read(now, addr, 64,
                                          MemClass::BvhNode, false,
                                          &ready);
        ASSERT_TRUE(ported.port(0).resolved(t));
        const auto &b = ported.port(0).result(t);
        EXPECT_EQ(a.readyCycle, b.readyCycle);
        EXPECT_EQ(a.readyCycle, ready);
        EXPECT_EQ(a.l1Hit, b.l1Hit);
        EXPECT_EQ(a.l2Hit, b.l2Hit);
    }
}

/**
 * Two SMs hammering the same L2 set within single cycles: the serial
 * read() path and the issue/commit path must produce identical Access
 * results and identical counters. This is the cross-SM contention case
 * the (sm, seq) commit order exists for — L2 LRU updates, MSHR merges
 * and DRAM queueing all depend on the global request order.
 */
TEST(MemorySystem, TwoPhaseMatchesSerialUnderL2Contention)
{
    MemConfig mc = smallConfig();
    MemorySystem serial(mc);
    MemorySystem phased(mc);

    // Addresses with identical L2 set index: stride = sets * lineBytes.
    uint64_t sets = mc.l2Bytes / (uint64_t(mc.l2Ways) * mc.lineBytes);
    uint64_t stride = sets * mc.lineBytes;

    for (uint64_t round = 0; round < 200; round++) {
        uint64_t now = round * 3; // several rounds share a cycle
        // Both SMs pick conflicting lines; every 4th round they touch
        // the very same line (same-cycle MSHR merge across SMs).
        uint64_t a0 = 0x100000 + (round % 6) * stride;
        uint64_t a1 = round % 4 == 0
                          ? a0
                          : 0x100000 + ((round + 3) % 6) * stride;

        auto s0 = serial.read(now, 0, a0, 64, MemClass::BvhNode);
        auto s1 = serial.read(now, 1, a1, 64, MemClass::Triangle);
        if (round % 5 == 0)
            serial.write(now, 0, 0x900000 + round * 64, 64,
                         MemClass::RayData);
        uint64_t sp = 0;
        if (round % 7 == 0)
            sp = serial.prefetchL1(now, 1, 0x400000 + round * 64, 64,
                                   MemClass::BvhNode);

        phased.beginIssuePhase();
        uint64_t r0 = 0, r1 = 0;
        MemTicket t0 = phased.port(0).read(now, a0, 64,
                                           MemClass::BvhNode, false, &r0);
        MemTicket t1 = phased.port(1).read(now, a1, 64,
                                           MemClass::Triangle, false, &r1);
        if (round % 5 == 0)
            phased.port(0).write(now, 0x900000 + round * 64, 64,
                                 MemClass::RayData);
        MemTicket tp = 0;
        if (round % 7 == 0)
            tp = phased.port(1).prefetchL1(now, 0x400000 + round * 64,
                                           64, MemClass::BvhNode);
        // Unresolved until the commit.
        EXPECT_FALSE(phased.port(0).resolved(t0));
        EXPECT_FALSE(phased.port(1).resolved(t1));
        phased.commitIssuePhase();

        ASSERT_TRUE(phased.port(0).resolved(t0));
        ASSERT_TRUE(phased.port(1).resolved(t1));
        const auto &p0 = phased.port(0).result(t0);
        const auto &p1 = phased.port(1).result(t1);
        EXPECT_EQ(s0.readyCycle, p0.readyCycle) << "round " << round;
        EXPECT_EQ(s0.l1Hit, p0.l1Hit);
        EXPECT_EQ(s0.l2Hit, p0.l2Hit);
        EXPECT_EQ(s0.readyCycle, r0);
        EXPECT_EQ(s1.readyCycle, p1.readyCycle) << "round " << round;
        EXPECT_EQ(s1.l1Hit, p1.l1Hit);
        EXPECT_EQ(s1.l2Hit, p1.l2Hit);
        EXPECT_EQ(s1.readyCycle, r1);
        if (round % 7 == 0) {
            EXPECT_EQ(sp, phased.port(1).result(tp).readyCycle);
        }
    }

    for (size_t c = 0; c < size_t(MemClass::NumClasses); c++) {
        const auto &a = serial.classStats(MemClass(c));
        const auto &b = phased.classStats(MemClass(c));
        EXPECT_EQ(a.l1Accesses, b.l1Accesses) << memClassName(MemClass(c));
        EXPECT_EQ(a.l1Misses, b.l1Misses);
        EXPECT_EQ(a.l2Accesses, b.l2Accesses);
        EXPECT_EQ(a.l2Misses, b.l2Misses);
        EXPECT_EQ(a.dramAccesses, b.dramAccesses);
        EXPECT_EQ(a.dramReadBytes, b.dramReadBytes);
        EXPECT_EQ(a.dramWriteBytes, b.dramWriteBytes);
        EXPECT_EQ(a.writes, b.writes);
    }
}

TEST(MemorySystem, MemClassNames)
{
    EXPECT_STREQ(memClassName(MemClass::BvhNode), "bvh_node");
    EXPECT_STREQ(memClassName(MemClass::RayData), "ray_data");
    EXPECT_STREQ(memClassName(MemClass::CtaState), "cta_state");
    EXPECT_STREQ(memClassName(MemClass::QueueTable), "queue_table");
}

} // anonymous namespace
} // namespace trt
