#include "noise.hh"

#include <algorithm>
#include <cmath>

#include "util/arena.hh"
#include "util/parallel.hh"

namespace leca {

float
PixelNoiseModel::sampleIntensity(float x, Rng &rng) const
{
    const double full = _config.fullWellElectrons;
    const double electrons = std::clamp(static_cast<double>(x), 0.0, 1.0)
                             * full;
    double noisy = static_cast<double>(rng.poisson(electrons));
    noisy += rng.gaussian(0.0, _config.readNoiseElectrons);
    return static_cast<float>(std::clamp(noisy / full, 0.0, 1.0));
}

Tensor
PixelNoiseModel::apply(const Tensor &image, Rng &rng) const
{
    Tensor out(image.shape());
    // One child stream per row keeps the noise deterministic for any
    // thread count: stream assignment depends only on the row index.
    const std::int64_t rows = image.dim() >= 1 ? image.size(0) : 1;
    const std::size_t per_row =
        image.numel() / static_cast<std::size_t>(rows);
    Arena::Scope scope;
    Rng *row_rngs =
        Arena::local().allocArray<Rng>(static_cast<std::size_t>(rows));
    Rng::splitInto(rng, row_rngs, static_cast<std::size_t>(rows));
    parallelFor(0, rows, 1, [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
            Rng &row_rng = row_rngs[r];
            const std::size_t base = static_cast<std::size_t>(r) * per_row;
            for (std::size_t i = 0; i < per_row; ++i)
                out[base + i] = sampleIntensity(image[base + i], row_rng);
        }
    });
    return out;
}

double
PixelNoiseModel::shotSigma(double x) const
{
    const double full = _config.fullWellElectrons;
    return std::sqrt(std::max(0.0, x) * full) / full;
}

} // namespace leca
