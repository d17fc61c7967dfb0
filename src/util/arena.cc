#include "arena.hh"

#include <algorithm>
#include <atomic>

#include "util/check.hh"
#include "util/parallel.hh"

namespace leca {

namespace {

/** Smallest block ever allocated: 64 K floats = 256 KiB. */
constexpr std::size_t kMinBlockFloats = std::size_t{1} << 16;

/** Bump granularity: 16 floats = one 64-byte cache line. */
constexpr std::size_t kAlignFloats = 16;

std::atomic<std::uint64_t> g_blockAllocs{0};

/** Monotone max of every arena's high-water mark; only written when a
 *  thread sets a new personal high-water, so steady state never
 *  touches it. */
std::atomic<std::size_t> g_maxHighWater{0};

std::size_t
roundUpAligned(std::size_t n)
{
    return (n + kAlignFloats - 1) & ~(kAlignFloats - 1);
}

/**
 * Floats to skip from a block's base so the first allocation lands on
 * a 64-byte boundary (vector storage only guarantees malloc
 * alignment). All sizes are 16-float multiples, so alignment is then
 * preserved for every subsequent bump.
 */
std::size_t
basePadFloats(const std::vector<float> &block)
{
    constexpr std::size_t bytes = kAlignFloats * sizeof(float);
    const auto addr = reinterpret_cast<std::uintptr_t>(block.data());
    return ((bytes - addr % bytes) % bytes) / sizeof(float);
}

} // namespace

Arena &
Arena::local()
{
    static thread_local Arena arena;
    return arena;
}

float *
Arena::alloc(std::size_t n)
{
    n = roundUpAligned(std::max<std::size_t>(n, kAlignFloats));
    if (_blocks.empty())
        grow(n);
    std::size_t start = std::max(_offset, basePadFloats(_blocks[_block]));
    if (start + n > _blocks[_block].size()) {
        grow(n);
        start = std::max(_offset, basePadFloats(_blocks[_block]));
    }
    float *p = _blocks[_block].data() + start;
    _offset = start + n;
    _live += n;
    if (_live > _highWater) {
        _highWater = _live;
        std::size_t cur = g_maxHighWater.load(std::memory_order_relaxed);
        while (cur < _highWater
               && !g_maxHighWater.compare_exchange_weak(
                   cur, _highWater, std::memory_order_relaxed)) {
        }
    }
    return p;
}

// leca-analyze: cold — the one sanctioned growth path; warm steady
// state never reaches it (asserted by the totalBlockAllocs tests)
void
Arena::grow(std::size_t n)
{
    // Reuse the next retained block when it is big enough; otherwise
    // append a new block at least as large as everything allocated so
    // far, so capacity doubles and the block count stays logarithmic.
    // kAlignFloats of headroom covers the base-alignment pad.
    if (!_blocks.empty() && _block + 1 < _blocks.size()
        && _blocks[_block + 1].size() >= n + kAlignFloats) {
        ++_block;
        _offset = 0;
        return;
    }
    const std::size_t size =
        std::max({n + kAlignFloats, kMinBlockFloats, capacityFloats()});
    _blocks.emplace_back(size);
    g_blockAllocs.fetch_add(1, std::memory_order_relaxed);
    _block = _blocks.size() - 1;
    _offset = 0;
}

void
Arena::consolidate()
{
    LECA_CHECK(_live == 0, "arena consolidation with ", _live,
               " live floats");
    if (_blocks.size() <= 1)
        return;
    const std::size_t total = capacityFloats();
    _blocks.clear();
    _blocks.emplace_back(total);
    g_blockAllocs.fetch_add(1, std::memory_order_relaxed);
    _block = 0;
    _offset = 0;
}

std::size_t
Arena::capacityFloats() const
{
    std::size_t total = 0;
    for (const auto &block : _blocks)
        total += block.size();
    return total;
}

// leca-analyze: keep: test hook — Arena counter
std::uint64_t
Arena::totalBlockAllocs()
{
    return g_blockAllocs.load(std::memory_order_relaxed);
}

std::size_t
Arena::maxHighWaterFloats()
{
    return g_maxHighWater.load(std::memory_order_relaxed);
}

// leca-analyze: keep: test hook — warms every worker before a DenyAllocScope
// leca-analyze: cold — deliberate pre-warming growth (see header)
void
warmPoolArenas()
{
    const std::size_t target = Arena::maxHighWaterFloats();
    if (target == 0)
        return;
    poolBarrier([target] {
        Arena::Scope scope;
        (void)Arena::local().alloc(target);
    });
}

Arena::Scope::Scope()
    : _arena(Arena::local()), _savedBlock(_arena._block),
      _savedOffset(_arena._offset), _savedLive(_arena._live)
{
    ++_arena._scopeDepth;
}

Arena::Scope::~Scope()
{
    _arena._block = _savedBlock;
    _arena._offset = _savedOffset;
    _arena._live = _savedLive;
    if (--_arena._scopeDepth == 0 && _arena._live == 0)
        _arena.consolidate();
}

} // namespace leca
