/**
 * @file
 * Per-simulator slab arena for simulation-lifetime allocations.
 *
 * The event loop's remaining allocator traffic is coroutine frames
 * (every spawned process and awaited child) and the rare oversized
 * InlineAction capture. Both are small, short-lived, and heavily
 * recycled, which general-purpose malloc serves through size-class
 * locks and thread caches it has to keep coherent machine-wide. An
 * Arena instead carves bump-pointer chunks and recycles freed blocks
 * through per-size-class free lists, so the steady state is a pop
 * from a singly linked list with no lock and no syscall; the chunks
 * are released wholesale when the owning Simulator tears down.
 *
 * Threading contract: an arena belongs to one thread, the thread
 * whose ArenaScope installed it (a Simulator's constructing thread).
 * allocate() and release() of its blocks run on that thread only;
 * parallel experiments each build their own Simulator and so their
 * own arena. Nothing in the arena is synchronized.
 *
 *  - Every block carries a 16-byte header naming its owning arena
 *    control block, so release() needs no thread-local lookup and
 *    blocks that outlive their Arena handle (a ProcessRef held past
 *    the Simulator) stay valid: the control block counts its live
 *    blocks and frees its chunks only when the handle is gone AND
 *    the last live block is released.
 *  - With no installed arena (or a block larger than the largest size
 *    class) allocation falls through to ::operator new, tagged in the
 *    header so release() routes it back correctly.
 */

#ifndef HOWSIM_SIM_ARENA_HH
#define HOWSIM_SIM_ARENA_HH

#include <cstddef>
#include <cstdint>

namespace howsim::sim
{

/** Single-thread slab allocator; see the file comment. */
class Arena
{
  public:
    /** Block sizes are rounded up to a multiple of this. */
    static constexpr std::size_t classBytes = 64;

    /** Largest size served from chunks; larger goes to ::new. */
    static constexpr std::size_t maxBlockBytes = 4096;

    /** First chunk size; chunks double up to maxChunkBytes. */
    static constexpr std::size_t firstChunkBytes = 64 * 1024;
    static constexpr std::size_t maxChunkBytes = 1024 * 1024;

    Arena();
    ~Arena();

    Arena(Arena &&other) noexcept;
    Arena &operator=(Arena &&other) noexcept;

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * Allocate @p bytes (payload view; the header is internal). The
     * returned pointer is aligned to alignof(std::max_align_t).
     */
    void *allocate(std::size_t bytes);

    /**
     * Return @p p — obtained from any Arena's allocate() or from
     * allocateGlobal() — to its source.
     */
    static void release(void *p) noexcept;

    /**
     * Allocate from the calling thread's installed arena, or from
     * ::operator new when none is installed. The partner of
     * release() for call sites (coroutine frames, action captures)
     * that cannot know whether an arena is active.
     */
    static void *allocateGlobal(std::size_t bytes);

    /**
     * Recycle every chunk for reuse without returning memory to the
     * OS. @pre no live allocations (panics otherwise) — this is the
     * wholesale between-runs reset, not a free().
     */
    void reset();

    /** The calling thread's installed arena (null when none). */
    static Arena *current();

    struct Stats
    {
        std::size_t chunks = 0;         //!< chunks carved so far
        std::size_t bytesReserved = 0;  //!< total chunk bytes
        std::uint64_t allocs = 0;       //!< allocate() calls served
        std::uint64_t freelistHits = 0; //!< served by recycling
        std::uint64_t oversize = 0;     //!< fell through to ::new
        std::uint64_t live = 0;         //!< blocks not yet released
    };

    Stats stats() const;

  private:
    struct Control;

    Control *ctl = nullptr;
};

/**
 * RAII installer of the calling thread's current arena. Nests:
 * destruction restores the previously installed arena.
 */
class ArenaScope
{
  public:
    explicit ArenaScope(Arena *arena);
    ~ArenaScope();

    ArenaScope(const ArenaScope &) = delete;
    ArenaScope &operator=(const ArenaScope &) = delete;

  private:
    Arena *prev;
};

} // namespace howsim::sim

#endif // HOWSIM_SIM_ARENA_HH
