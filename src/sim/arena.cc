#include "sim/arena.hh"

#include <new>

#include "sim/logging.hh"

namespace howsim::sim
{

namespace
{

thread_local Arena *tlsArena = nullptr;

/**
 * Every block (chunk-backed, oversize, and global-fallback alike)
 * is preceded by this 16-byte header so release() is self-routing.
 * owner == nullptr means ::operator new with no arena involved;
 * cls == 0 with an owner means an oversize block that only
 * participates in the arena's refcount.
 */
struct Header
{
    void *owner;       //!< Arena::Control*, or null for plain ::new
    std::uint64_t cls; //!< size-class index; 0 = oversize
};

static_assert(sizeof(Header) == 16);
static_assert(alignof(std::max_align_t) <= 16,
              "payloads are aligned by the 16-byte header");

} // namespace

struct Arena::Control
{
    static constexpr std::size_t nClasses
        = maxBlockBytes / classBytes + 1;

    struct FreeNode
    {
        FreeNode *next;
    };

    struct Chunk
    {
        Chunk *next;
        std::size_t capacity; //!< usable bytes after this header
    };

    FreeNode *freelist[nClasses] = {};

    Chunk *chunks = nullptr; //!< newest first
    std::byte *bump = nullptr;
    std::byte *bumpEnd = nullptr;
    Chunk *reuse = nullptr; //!< next recycled chunk after reset()
    std::size_t nextChunkBytes = firstChunkBytes;

    std::size_t nchunks = 0;
    std::size_t bytesReserved = 0;
    std::uint64_t allocs = 0;
    std::uint64_t freelistHits = 0;
    std::uint64_t oversize = 0;

    /**
     * 1 for the Arena handle plus 1 per live block. The control
     * block (and its chunks) dies when this reaches zero, which may
     * be a block release long after the handle is gone.
     */
    std::uint64_t refs = 1;

    static void
    unref(Control *c) noexcept
    {
        if (--c->refs == 0)
            destroy(c);
    }

    static void
    destroy(Control *c) noexcept
    {
        Chunk *chunk = c->chunks;
        while (chunk) {
            Chunk *next = chunk->next;
            ::operator delete(chunk);
            chunk = next;
        }
        delete c;
    }
};

Arena::Arena() : ctl(new Control) {}

Arena::~Arena()
{
    if (ctl)
        Control::unref(ctl);
}

Arena::Arena(Arena &&other) noexcept
    : ctl(other.ctl)
{
    other.ctl = nullptr;
}

Arena &
Arena::operator=(Arena &&other) noexcept
{
    if (this != &other) {
        if (ctl)
            Control::unref(ctl);
        ctl = other.ctl;
        other.ctl = nullptr;
    }
    return *this;
}

void *
Arena::allocate(std::size_t bytes)
{
    Control &c = *ctl;
    std::size_t need = bytes + sizeof(Header);
    if (need > maxBlockBytes) {
        // Oversize: plain ::new, but tagged with the control block so
        // the arena's live count still covers it.
        ++c.oversize;
        ++c.refs;
        auto *h = static_cast<Header *>(::operator new(need));
        h->owner = &c;
        h->cls = 0;
        return h + 1;
    }
    std::size_t cls = (need + classBytes - 1) / classBytes;
    ++c.allocs;
    ++c.refs;

    if (Control::FreeNode *head = c.freelist[cls]) {
        c.freelist[cls] = head->next;
        ++c.freelistHits;
        auto *h = reinterpret_cast<Header *>(head);
        h->owner = &c;
        h->cls = cls;
        return h + 1;
    }

    std::size_t sz = cls * classBytes;
    if (static_cast<std::size_t>(c.bumpEnd - c.bump) < sz) {
        if (c.reuse) {
            // reset() put the existing chunks back in play.
            c.bump = reinterpret_cast<std::byte *>(c.reuse + 1);
            c.bumpEnd = c.bump + c.reuse->capacity;
            c.reuse = c.reuse->next;
        } else {
            std::size_t chunkBytes = c.nextChunkBytes;
            if (c.nextChunkBytes < maxChunkBytes)
                c.nextChunkBytes *= 2;
            auto *chunk = static_cast<Control::Chunk *>(
                ::operator new(sizeof(Control::Chunk) + chunkBytes));
            chunk->capacity = chunkBytes;
            chunk->next = c.chunks;
            c.chunks = chunk;
            ++c.nchunks;
            c.bytesReserved += chunkBytes;
            c.bump = reinterpret_cast<std::byte *>(chunk + 1);
            c.bumpEnd = c.bump + chunkBytes;
        }
        if (static_cast<std::size_t>(c.bumpEnd - c.bump) < sz) {
            // A recycled chunk smaller than the request; skip it.
            return allocate(bytes);
        }
    }
    auto *h = reinterpret_cast<Header *>(c.bump);
    c.bump += sz;
    h->owner = &c;
    h->cls = cls;
    return h + 1;
}

void
Arena::release(void *p) noexcept
{
    auto *h = static_cast<Header *>(p) - 1;
    auto *c = static_cast<Control *>(h->owner);
    if (!c) {
        ::operator delete(h);
        return;
    }
    if (h->cls == 0) {
        ::operator delete(h);
        Control::unref(c);
        return;
    }
    auto *node = reinterpret_cast<Control::FreeNode *>(h);
    node->next = c->freelist[h->cls];
    c->freelist[h->cls] = node;
    Control::unref(c);
}

void *
Arena::allocateGlobal(std::size_t bytes)
{
    if (Arena *a = tlsArena)
        return a->allocate(bytes);
    auto *h = static_cast<Header *>(
        ::operator new(bytes + sizeof(Header)));
    h->owner = nullptr;
    h->cls = 0;
    return h + 1;
}

void
Arena::reset()
{
    Control &c = *ctl;
    if (c.refs != 1) {
        panic("Arena::reset with %llu live allocation(s)",
              static_cast<unsigned long long>(c.refs - 1));
    }
    for (auto &list : c.freelist)
        list = nullptr;
    c.reuse = c.chunks;
    c.bump = c.bumpEnd = nullptr;
}

Arena *
Arena::current()
{
    return tlsArena;
}

Arena::Stats
Arena::stats() const
{
    const Control &c = *ctl;
    Stats s;
    s.chunks = c.nchunks;
    s.bytesReserved = c.bytesReserved;
    s.allocs = c.allocs;
    s.freelistHits = c.freelistHits;
    s.oversize = c.oversize;
    s.live = c.refs - 1;
    return s;
}

ArenaScope::ArenaScope(Arena *arena) : prev(tlsArena)
{
    tlsArena = arena;
}

ArenaScope::~ArenaScope()
{
    tlsArena = prev;
}

} // namespace howsim::sim
