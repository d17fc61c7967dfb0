#include "chain.hh"

#include "util/check.hh"

namespace leca {

AnalogChain
AnalogChain::nominal(const CircuitConfig &config)
{
    return AnalogChain{SourceFollower(config.psf), ScMultiplier(config),
                       SourceFollower(config.fvf), VariableResolutionAdc(),
                       config};
}

AnalogChain
AnalogChain::sample(const CircuitConfig &config, Rng &mc_rng)
{
    return AnalogChain{SourceFollower(config.psf, mc_rng),
                       ScMultiplier(config, mc_rng),
                       SourceFollower(config.fvf, mc_rng),
                       VariableResolutionAdc(config, mc_rng), config};
}

int
AnalogChain::encode(const std::vector<double> &v_pixels,
                    const std::vector<ScmWeight> &weights, bool ideal,
                    Rng *noise_rng) const
{
    LECA_CHECK(v_pixels.size() == weights.size(), "chain input mismatch: ",
               v_pixels.size(), " pixels vs ", weights.size(), " weights");
    return withDevice(ideal, noise_rng, [&](const auto &dev) {
        DiffBuffer buffer(config.vCm);
        accumulateTaps(
            dev, weights.data(), static_cast<int>(weights.size()),
            [&](int i) {
                return dev.psf(v_pixels[static_cast<std::size_t>(i)]);
            },
            buffer);
        return adc.convert(readOut(dev, buffer));
    });
}

} // namespace leca
