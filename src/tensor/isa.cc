#include "isa.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/check.hh"

namespace leca {

namespace {

using namespace simd::detail;

// Theoretical per-core, per-cycle peaks for the roofline row —
// documented estimates, not measurements. f32FlopsPerCycle is the FMA
// peak the fp32 micro-kernel's fused chains (simd.hh) can reach: two
// FMA instructions per cycle, two flops per lane each (scalar and NEON:
// two 4-lane FMAs). i8MacsPerCycle assumes one widening int8 MAC
// instruction per cycle (VPDPBUSD / SDOT where present): a zmm
// VPDPBUSD is 16 lanes × 4 MACs = 64. The int8 panel's per-block
// scaling does not change the MAC count.
const KernelSet kScalarSet = {
    "scalar", Isa::Scalar,
    microF32Scalar, dotQ8PanelScalar, quantizeRowScalar,
    dequantizeRowScalar,
    /*f32FlopsPerCycle=*/16.0, /*i8MacsPerCycle=*/8.0,
    affineReluRowScalar,
};

#if defined(LECA_HAVE_AVX2)
const KernelSet kAvx2Set = {
    "avx2", Isa::Avx2,
    microF32Avx2, dotQ8PanelAvx2, quantizeRowAvx2, dequantizeRowAvx2,
    /*f32FlopsPerCycle=*/32.0, /*i8MacsPerCycle=*/32.0,
    affineReluRowAvx2,
};
#endif

#if defined(LECA_HAVE_AVX512)
const KernelSet &
avx512Set()
{
    static const KernelSet set = [] {
        KernelSet s = {
            "avx512", Isa::Avx512,
            microF32Avx512,
#if defined(LECA_HAVE_AVX2)
            dotQ8PanelAvx2, // replaced below when the host has VNNI
#else
            dotQ8PanelScalar,
#endif
            quantizeRowAvx512, dequantizeRowAvx512,
            /*f32FlopsPerCycle=*/64.0, /*i8MacsPerCycle=*/32.0,
            affineReluRowAvx512,
        };
#if defined(LECA_HAVE_AVX512VNNI) && defined(__x86_64__)
        if (__builtin_cpu_supports("avx512vnni")) {
            s.dotQ8Panel = dotQ8PanelVnni;
            s.i8MacsPerCycle = 64.0;
        }
#endif
        return s;
    }();
    return set;
}
#endif

#if defined(LECA_HAVE_NEON)
const KernelSet kNeonSet = {
    "neon", Isa::Neon,
    microF32Scalar, dotQ8PanelScalar, quantizeRowScalar,
    dequantizeRowScalar,
    /*f32FlopsPerCycle=*/16.0, /*i8MacsPerCycle=*/8.0,
    affineReluRowNeon,
};
#endif

/** Probe the host and return the widest runnable compiled-in set. */
// leca-analyze: cold — one-time dispatch selection
const KernelSet &
probeKernels()
{
    const char *env = std::getenv("LECA_ISA");
    if (env && *env) {
        const KernelSet *set = kernelSetByName(env);
        LECA_CHECK(set != nullptr, "LECA_ISA=", env,
                   " does not name a compiled-in kernel set");
        LECA_CHECK(hostSupportsKernelSet(*set), "LECA_ISA=", env,
                   " is not executable on this host");
        return *set;
    }
#if defined(LECA_HAVE_NEON)
    return kNeonSet;
#endif
#if defined(LECA_HAVE_AVX512) && defined(__x86_64__)
    if (__builtin_cpu_supports("avx512f")
        && __builtin_cpu_supports("avx512bw")
        && __builtin_cpu_supports("avx512vl"))
        return avx512Set();
#endif
#if defined(LECA_HAVE_AVX2) && defined(__x86_64__)
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        return kAvx2Set;
#endif
    return kScalarSet;
}

/** Test override slot; null means "use the probed set". Atomic so the
 *  pool workers' snapshot reads are race-free under TSan. */
std::atomic<const KernelSet *> g_override{nullptr};

} // namespace

const KernelSet &
activeKernels()
{
    const KernelSet *forced = g_override.load(std::memory_order_acquire);
    if (forced)
        return *forced;
    static const KernelSet &probed = probeKernels();
    return probed;
}

const std::vector<const KernelSet *> &
compiledKernelSets()
{
    static const std::vector<const KernelSet *> sets = [] {
        std::vector<const KernelSet *> v;
        v.push_back(&kScalarSet);
#if defined(LECA_HAVE_AVX2)
        v.push_back(&kAvx2Set);
#endif
#if defined(LECA_HAVE_AVX512)
        v.push_back(&avx512Set());
#endif
#if defined(LECA_HAVE_NEON)
        v.push_back(&kNeonSet);
#endif
        return v;
    }();
    return sets;
}

const KernelSet *
kernelSetByName(const char *name)
{
    for (const KernelSet *set : compiledKernelSets())
        if (std::strcmp(set->name, name) == 0)
            return set;
    return nullptr;
}

bool
hostSupportsKernelSet(const KernelSet &set)
{
    switch (set.isa) {
      case Isa::Scalar:
        return true;
      case Isa::Avx2:
        // The set is built with -mfma: its fp32 tile, int8 panel and
        // epilogue all issue VFMADD.
#if defined(__x86_64__)
        return __builtin_cpu_supports("avx2")
               && __builtin_cpu_supports("fma");
#else
        return false;
#endif
      case Isa::Avx512:
#if defined(__x86_64__)
        return __builtin_cpu_supports("avx512f")
               && __builtin_cpu_supports("avx512bw")
               && __builtin_cpu_supports("avx512vl");
#else
        return false;
#endif
      case Isa::Neon:
#if defined(__aarch64__)
        return true;
#else
        return false;
#endif
    }
    return false;
}

ScopedKernelOverride::ScopedKernelOverride(const KernelSet &set)
    : _previous(g_override.exchange(&set, std::memory_order_acq_rel))
{
}

ScopedKernelOverride::~ScopedKernelOverride()
{
    g_override.store(_previous, std::memory_order_release);
}

} // namespace leca
