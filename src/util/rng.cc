#include "rng.hh"

#include <cmath>
#include <memory>

namespace leca {

namespace {

std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : _state)
        word = splitMix64(s);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(_state[1] * 5, 7) * 9;
    const std::uint64_t t = _state[1] << 17;

    _state[2] ^= _state[0];
    _state[3] ^= _state[1];
    _state[1] ^= _state[2];
    _state[0] ^= _state[3];
    _state[2] ^= t;
    _state[3] = rotl(_state[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

int
Rng::uniformInt(int lo, int hi)
{
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<int>(next() % span);
}

double
Rng::gaussian()
{
    if (_hasCachedGaussian) {
        _hasCachedGaussian = false;
        return _cachedGaussian;
    }
    double u1 = 0.0;
    do {
        u1 = uniform();
    } while (u1 <= 1e-300);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    _cachedGaussian = r * std::sin(theta);
    _hasCachedGaussian = true;
    return r * std::cos(theta);
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

long
Rng::poisson(double lambda)
{
    if (lambda <= 0.0)
        return 0;
    if (lambda > 64.0) {
        const double g = gaussian(lambda, std::sqrt(lambda));
        return g < 0.0 ? 0 : static_cast<long>(g + 0.5);
    }
    const double limit = std::exp(-lambda);
    long k = 0;
    double p = 1.0;
    do {
        ++k;
        p *= uniform();
    } while (p > limit);
    return k - 1;
}

Rng
Rng::fork()
{
    return Rng(next());
}

std::vector<Rng>
Rng::split(Rng &parent, std::size_t count)
{
    std::vector<Rng> streams;
    streams.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        streams.push_back(parent.fork());
    return streams;
}

void
Rng::splitInto(Rng &parent, Rng *out, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        std::construct_at(out + i, parent.fork());
}

} // namespace leca
