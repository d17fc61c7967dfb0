/**
 * @file
 * Deterministic pseudo-random number generation for every stochastic
 * component in the repository (dataset synthesis, weight init, circuit
 * mismatch sampling, sensor noise).
 *
 * All benches and tests seed an Rng explicitly, so every experiment is
 * reproducible bit-for-bit across runs.
 */

#ifndef LECA_UTIL_RNG_HH
#define LECA_UTIL_RNG_HH

#include <array>
#include <cstdint>
#include <vector>

namespace leca {

/**
 * xoshiro256** generator seeded through SplitMix64.
 *
 * Small, fast, and good enough statistically for simulation noise; we
 * deliberately avoid std::mt19937 so that streams are identical across
 * standard-library implementations.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    int uniformInt(int lo, int hi);

    /** Standard normal via Box-Muller (cached second value). */
    double gaussian();

    /** Normal with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /**
     * Poisson sample with the given mean.
     *
     * Uses Knuth's method for small lambda and a Gaussian approximation
     * for large lambda (> 64), which is accurate for photon shot noise
     * at normal illumination levels.
     */
    long poisson(double lambda);

    /** Derive an independent child stream (e.g. one per image). */
    Rng fork();

    /**
     * Pre-split @p count independent child streams from @p parent, one
     * per loop index, advancing @p parent once per child. Call this
     * BEFORE a parallel region and hand streams[i] to index i: the
     * draw sequence of each child then depends only on its index, never
     * on thread scheduling (see util/parallel.hh determinism policy).
     */
    static std::vector<Rng> split(Rng &parent, std::size_t count);

    /**
     * split() into caller-owned storage: constructs the same @p count
     * child streams at @p out, uninitialised room for @p count Rng
     * objects (e.g. Arena::allocArray<Rng>), without touching the heap.
     */
    static void splitInto(Rng &parent, Rng *out, std::size_t count);

  private:
    std::array<std::uint64_t, 4> _state;
    double _cachedGaussian = 0.0;
    bool _hasCachedGaussian = false;
};

} // namespace leca

#endif // LECA_UTIL_RNG_HH
