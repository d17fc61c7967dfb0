#include "weights.hh"

#include <algorithm>
#include <cmath>

#include "util/check.hh"
#include "util/numeric.hh"

namespace leca {

ScmWeight
quantizeWeight(float w, float w_scale, int dac_steps)
{
    LECA_CHECK(w_scale > 0.0f && std::isfinite(w_scale), "weight scale ",
               w_scale, " must be positive and finite");
    LECA_CHECK(std::isfinite(w), "weight ", w,
               " is not finite; it has no cap-DAC code");
    // Clamp in float before narrowing, so a weight far beyond the scale
    // maps to the full code instead of overflowing the int.
    const float steps = static_cast<float>(dac_steps);
    const float level = std::min(std::abs(w) / w_scale * steps, steps);
    return ScmWeight{roundToInt(level), w < 0.0f};
}

void
flattenKernelInto(const Tensor &rgb_weights, int k, float w_scale,
                  int dac_steps, ScmWeight *taps)
{
    LECA_CHECK(rgb_weights.dim() == 4 && rgb_weights.size(1) == 3
                   && rgb_weights.size(2) == 2 && rgb_weights.size(3) == 2
                   && k >= 0 && k < rgb_weights.size(0),
               "flattenKernels expects kernel k of [Nch,3,2,2], got k = ", k,
               " of ", detail::formatShape(rgb_weights.shape()));
    const float *kernel =
        rgb_weights.data() + static_cast<std::size_t>(k) * 12;
    for (std::size_t t = 0; t < kBayerTaps.size(); ++t) {
        const BayerTap &tap = kBayerTaps[t];
        taps[t] = quantizeWeight(kernel[tap.weightOffset()] * tap.factor,
                                 w_scale, dac_steps);
    }
}

std::vector<FlatKernel>
flattenKernels(const Tensor &rgb_weights, float w_scale,
               const CircuitConfig &circuit)
{
    std::vector<FlatKernel> kernels(
        static_cast<std::size_t>(rgb_weights.size(0)));
    for (std::size_t k = 0; k < kernels.size(); ++k) {
        kernels[k].taps.resize(kBayerTaps.size());
        flattenKernelInto(rgb_weights, static_cast<int>(k), w_scale,
                          circuit.dacSteps(), kernels[k].taps.data());
    }
    return kernels;
}

} // namespace leca
