/**
 * @file
 * Thread-local bump-allocated scratch arena for kernel workspace.
 *
 * The packed GEMM / im2col kernels (tensor/kernels.cc) need short-lived
 * scratch buffers (packed panels, column matrices) on every call. Heap
 * allocating those per image per conv call dominated steady-state
 * allocation traffic, so all kernel scratch instead comes from one
 * arena per thread: a bump pointer over a few large blocks that are
 * retained across calls. After a warm-up pass the arena reaches its
 * high-water capacity and every subsequent top-level op allocates
 * nothing from the heap (asserted by tests/test_kernels.cc via the
 * block-allocation counter).
 *
 * Lifetime rules:
 *   - Every top-level use opens an Arena::Scope (RAII). alloc() bumps;
 *     the Scope destructor rewinds to the saved mark, so nested scopes
 *     (e.g. a GEMM inside a conv) stack naturally.
 *   - Pointers returned by alloc() are valid until their enclosing
 *     Scope is destroyed; blocks are never moved or freed inside a
 *     scope.
 *   - When the outermost Scope on a thread closes and the arena had
 *     fragmented into multiple blocks, the blocks are consolidated
 *     into one block of the combined capacity (one final allocation),
 *     so steady state is a single block and zero heap traffic.
 *   - Arenas are thread-local: pool workers each own one, so parallel
 *     kernel chunks pack into private scratch with no sharing.
 */

#ifndef LECA_UTIL_ARENA_HH
#define LECA_UTIL_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace leca {

/** Bump allocator over retained float blocks; see file comment. */
class Arena
{
  public:
    /** The calling thread's arena. */
    static Arena &local();

    /**
     * Bump-allocate @p n floats (rounded up to a 16-float boundary;
     * the block is grown only when capacity runs out). The memory is
     * uninitialised. Valid until the enclosing Scope closes.
     */
    float *alloc(std::size_t n);

    /**
     * Byte-typed view of alloc() for non-float kernel scratch (int8
     * quantized codes): bumps ceil(bytes/4) floats, so alignment and
     * lifetime rules are identical.
     */
    void *allocBytes(std::size_t bytes)
    {
        return alloc((bytes + sizeof(float) - 1) / sizeof(float));
    }

    /**
     * Typed view of allocBytes() for trivially copyable scratch
     * (double tables, pre-split Rng streams): room for @p n objects,
     * uninitialised, 64-byte aligned, same lifetime rules.
     */
    template <typename T>
    T *
    allocArray(std::size_t n)
    {
        static_assert(std::is_trivially_copyable_v<T>
                          && alignof(T) <= 16 * sizeof(float),
                      "arena scratch holds aligned trivially copyable "
                      "objects");
        return static_cast<T *>(allocBytes(n * sizeof(T)));
    }

    /** Floats currently handed out (rounded sizes). */
    std::size_t liveFloats() const { return _live; }

    /** Largest liveFloats() ever observed on this arena. */
    std::size_t highWaterFloats() const { return _highWater; }

    /** Largest highWaterFloats() ever observed on ANY thread's arena
     *  (process-wide monotone max) — the capacity warmPoolArenas()
     *  grows cold arenas to. */
    static std::size_t maxHighWaterFloats();

    /** Total float capacity across this arena's blocks. */
    std::size_t capacityFloats() const;

    /**
     * Process-wide count of backing-block heap allocations across all
     * arenas. Flat across repeated identical workloads once warm —
     * the hook tests/test_kernels.cc uses to prove steady-state
     * conv/GEMM calls are allocation-free.
     */
    static std::uint64_t totalBlockAllocs();

    /**
     * RAII mark/rewind over the calling thread's arena. Opened by
     * every top-level kernel entry point; cheap enough to open
     * unconditionally (nested scopes just save and restore a mark).
     */
    class Scope
    {
      public:
        Scope();
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Arena &_arena;
        std::size_t _savedBlock;
        std::size_t _savedOffset;
        std::size_t _savedLive;
    };

  private:
    Arena() = default;

    /** Make room for @p n floats: next retained block or a new one. */
    void grow(std::size_t n);

    /** Merge multiple blocks into one; only legal when nothing is live. */
    void consolidate();

    std::vector<std::vector<float>> _blocks;
    std::size_t _block = 0;     //!< index of the block being bumped
    std::size_t _offset = 0;    //!< bump offset within _blocks[_block]
    std::size_t _live = 0;      //!< floats handed out across blocks
    std::size_t _highWater = 0; //!< max of _live
    int _scopeDepth = 0;        //!< open Scope count (consolidation gate)
};

/**
 * Grow the calling thread's arena AND every pool worker's arena to
 * Arena::maxHighWaterFloats(), via poolBarrier (util/parallel.hh).
 *
 * Pool chunks are claimed dynamically, so warm-up iterations alone
 * cannot guarantee that every worker's thread-local arena reached the
 * workload's high-water mark — a worker that slept through the warm-up
 * would heap-allocate (grow its cold arena) on its first claimed chunk.
 * Call this after the warm-up, before entering a DenyAllocScope region
 * or asserting Arena::totalBlockAllocs() stability, to make the warm
 * steady state scheduling-independent. No-op when nothing has ever
 * been allocated.
 */
void warmPoolArenas();

} // namespace leca

#endif // LECA_UTIL_ARENA_HH
