/**
 * @file
 * Arena allocator unit tests: size-class recycling, alignment,
 * oversize fallback, reset semantics, move-only handle behavior,
 * and blocks outliving their Arena handle —
 * the exact lifetime the simulator relies on when a ProcessRef (and
 * its coroutine frame) is held past the Simulator's destruction.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "sim/arena.hh"

using namespace howsim::sim;

namespace
{

TEST(Arena, ServesAlignedBlocks)
{
    Arena arena;
    for (std::size_t bytes : {1u, 7u, 63u, 64u, 65u, 512u, 4096u}) {
        void *p = arena.allocate(bytes);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p)
                      % alignof(std::max_align_t),
                  0u)
            << "misaligned block of " << bytes << " bytes";
        std::memset(p, 0xab, bytes); // must be writable end to end
        Arena::release(p);
    }
}

TEST(Arena, RecyclesThroughFreeLists)
{
    Arena arena;
    void *a = arena.allocate(100);
    Arena::release(a);
    void *b = arena.allocate(100);
    // Same size class, freed before the next allocate: the free list
    // must serve it (same address, one freelist hit).
    EXPECT_EQ(a, b);
    Arena::Stats s = arena.stats();
    EXPECT_EQ(s.allocs, 2u);
    EXPECT_EQ(s.freelistHits, 1u);
    Arena::release(b);
}

TEST(Arena, DistinctLiveBlocksDoNotOverlap)
{
    Arena arena;
    std::vector<char *> blocks;
    for (int i = 0; i < 1000; ++i) {
        char *p = static_cast<char *>(arena.allocate(96));
        std::memset(p, i & 0xff, 96);
        blocks.push_back(p);
    }
    for (int i = 0; i < 1000; ++i) {
        for (int j = 0; j < 96; ++j)
            ASSERT_EQ(blocks[static_cast<std::size_t>(i)][j],
                      static_cast<char>(i & 0xff));
    }
    EXPECT_EQ(arena.stats().live, 1000u);
    for (char *p : blocks)
        Arena::release(p);
    EXPECT_EQ(arena.stats().live, 0u);
}

TEST(Arena, GrowsChunksAsNeeded)
{
    Arena arena;
    // 1000 near-maximal class-served blocks blow well past the 64 KB
    // first chunk (4096-byte requests would be oversize: the header
    // pushes them past maxBlockBytes).
    constexpr std::size_t bytes = 4000;
    std::vector<void *> blocks;
    for (int i = 0; i < 1000; ++i)
        blocks.push_back(arena.allocate(bytes));
    Arena::Stats s = arena.stats();
    EXPECT_GT(s.chunks, 1u);
    EXPECT_GE(s.bytesReserved, 1000u * bytes);
    EXPECT_EQ(s.oversize, 0u);
    for (void *p : blocks)
        Arena::release(p);
}

TEST(Arena, OversizeFallsThroughToHeap)
{
    Arena arena;
    void *p = arena.allocate(Arena::maxBlockBytes + 1);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xcd, Arena::maxBlockBytes + 1);
    EXPECT_EQ(arena.stats().oversize, 1u);
    Arena::release(p);
}

TEST(Arena, ResetRecyclesChunks)
{
    Arena arena;
    std::vector<void *> blocks;
    for (int i = 0; i < 5000; ++i)
        blocks.push_back(arena.allocate(128));
    for (void *p : blocks)
        Arena::release(p);
    std::size_t reserved = arena.stats().bytesReserved;
    ASSERT_GT(reserved, 0u);
    arena.reset();
    // Chunks survive the reset and serve the next round without new
    // reservations.
    for (int i = 0; i < 5000; ++i)
        blocks[static_cast<std::size_t>(i)] = arena.allocate(128);
    EXPECT_EQ(arena.stats().bytesReserved, reserved);
    for (void *p : blocks)
        Arena::release(p);
}

TEST(Arena, MoveTransfersOwnership)
{
    Arena a;
    void *p = a.allocate(200);
    Arena b(std::move(a));
    EXPECT_EQ(b.stats().live, 1u);
    Arena::release(p);
    EXPECT_EQ(b.stats().live, 0u);
    void *q = b.allocate(200);
    EXPECT_EQ(q, p); // free list moved with the control block
    Arena::release(q);

    Arena c;
    c = std::move(b);
    void *r = c.allocate(64);
    Arena::release(r);
}

TEST(Arena, GlobalAllocationWithoutScopeUsesHeap)
{
    // No ArenaScope installed: allocateGlobal must hand out plain
    // heap memory that release() routes back to ::operator delete.
    ASSERT_EQ(Arena::current(), nullptr);
    void *p = Arena::allocateGlobal(333);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0x5a, 333);
    Arena::release(p);
}

TEST(Arena, ScopeInstallsAndNests)
{
    Arena outer;
    Arena inner;
    ASSERT_EQ(Arena::current(), nullptr);
    {
        ArenaScope so(&outer);
        EXPECT_EQ(Arena::current(), &outer);
        void *p = Arena::allocateGlobal(100);
        {
            ArenaScope si(&inner);
            EXPECT_EQ(Arena::current(), &inner);
            void *q = Arena::allocateGlobal(100);
            Arena::release(q);
            EXPECT_EQ(inner.stats().allocs, 1u);
        }
        EXPECT_EQ(Arena::current(), &outer);
        Arena::release(p);
        EXPECT_EQ(outer.stats().allocs, 1u);
    }
    ASSERT_EQ(Arena::current(), nullptr);
}

TEST(Arena, BlocksOutliveTheArenaHandle)
{
    void *p = nullptr;
    {
        Arena arena;
        p = arena.allocate(512);
        std::memset(p, 0x77, 512);
    }
    // The handle is gone; the refcounted control block must keep the
    // chunk alive until the last block is released.
    for (int i = 0; i < 512; ++i)
        ASSERT_EQ(static_cast<unsigned char *>(p)[i], 0x77u);
    Arena::release(p);
}

TEST(ArenaDeathTest, ResetWithLiveAllocationsPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Arena arena;
    void *p = arena.allocate(64);
    EXPECT_DEATH(arena.reset(), "live");
    Arena::release(p);
}

} // namespace
