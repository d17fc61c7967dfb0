/**
 * @file
 * Runtime kernel dispatch (DESIGN.md §12): probe the host once per
 * process, pick the widest compiled-in KernelSet it supports, and hand
 * the hot paths plain function pointers.
 *
 * Dispatch policy:
 *  - Per-process, not per-call: the selection happens once (first use)
 *    and never changes, so a serve replica answers every request with
 *    the same kernels — responses are bit-identical across thread
 *    counts and batch sizes, and across hosts that resolve to the same
 *    ISA (the per-ISA kernels themselves are bit-identical anyway, see
 *    simd.hh).
 *  - LECA_ISA=scalar|avx2|avx512|neon overrides the probe (read once).
 *    Naming a set that is not compiled in or that the host cannot run
 *    is a fatal configuration error, not a silent fallback.
 *  - Hot callers snapshot one function pointer before their parallel
 *    region (never re-read per tile), so a test-scoped override can
 *    never tear a single GEMM across two ISAs.
 */

#ifndef LECA_TENSOR_ISA_HH
#define LECA_TENSOR_ISA_HH

#include <vector>

#include "tensor/simd.hh"

namespace leca {

/**
 * The process-wide active kernel set (probe + LECA_ISA on first call,
 * then constant — unless a ScopedKernelOverride is live).
 */
const KernelSet &activeKernels();

/** Every kernel set compiled into this binary (host-runnable or not). */
const std::vector<const KernelSet *> &compiledKernelSets();

/** Compiled-in set by name ("scalar", "avx2", ...), or nullptr. */
const KernelSet *kernelSetByName(const char *name);

/** Whether the running host can execute @p set's instructions. */
bool hostSupportsKernelSet(const KernelSet &set);

/**
 * Test/bench hook: force @p set as the active kernels for this scope
 * (process-wide, like the real dispatch — intended for single-threaded
 * driver code; the pool workers observe the override through an atomic
 * snapshot taken at each kernel entry). The caller must ensure the
 * host supports the set.
 */
// leca-analyze: keep: test hook — pins a KernelSet for the cross-ISA tests
class ScopedKernelOverride
{
  public:
    explicit ScopedKernelOverride(const KernelSet &set);
    ~ScopedKernelOverride();
    ScopedKernelOverride(const ScopedKernelOverride &) = delete;
    ScopedKernelOverride &operator=(const ScopedKernelOverride &) = delete;

  private:
    const KernelSet *_previous;
};

} // namespace leca

#endif // LECA_TENSOR_ISA_HH
