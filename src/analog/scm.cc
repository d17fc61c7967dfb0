#include "scm.hh"

#include "util/check.hh"

namespace leca {

namespace {

/**
 * Effective sampling cap per code: the thermometer DAC connects unit caps
 * 0..code-1, each with its mismatch (from @p mc_rng in unit order, else
 * zero); incomplete charge transfer scales the total.
 */
std::vector<double>
effectiveCaps(const CircuitConfig &config, Rng *mc_rng)
{
    config.validate();
    const int steps = config.dacSteps();
    std::vector<double> caps(static_cast<std::size_t>(steps) + 1, 0.0);
    double cap = 0.0;
    for (int u = 0; u < steps; ++u) {
        const double delta =
            mc_rng ? mc_rng->gaussian(0.0, config.capMismatchSigma) : 0.0;
        cap += config.unitCapFf() * (1.0 + delta);
        caps[static_cast<std::size_t>(u) + 1] =
            cap * config.chargeTransferEta;
    }
    return caps;
}

} // namespace

ScMultiplier::ScMultiplier(const CircuitConfig &config)
    : _config(config), _capEff(effectiveCaps(config, nullptr))
{
}

ScMultiplier::ScMultiplier(const CircuitConfig &config, Rng &mc_rng)
    : _config(config), _capEff(effectiveCaps(config, &mc_rng))
{
}

double
ScMultiplier::effectiveCapFf(int magnitude) const
{
    LECA_CHECK(magnitude >= 0 && magnitude <= _config.dacSteps(), "cap code ",
               magnitude, " outside [0, ", _config.dacSteps(), "]");
    return _capEff[static_cast<std::size_t>(magnitude)];
}

double
ScMultiplier::idealStep(const CircuitConfig &config, double v_prev,
                        double v_in, double cs_ff)
{
    if (cs_ff <= 0.0)
        return v_prev;
    return (cs_ff * (2.0 * config.vCm - v_in) + config.cOutFf * v_prev)
           / (config.cOutFf + cs_ff);
}

double
ScMultiplier::step(double v_prev, double v_in, int magnitude,
                   Rng *noise_rng) const
{
    if (magnitude == 0)
        return v_prev;
    double v = idealStep(_config, v_prev, v_in, effectiveCapFf(magnitude));
    v += _config.injectionOffsetV;
    if (noise_rng)
        v += noise_rng->gaussian(0.0, _config.scmNoiseSigma);
    return v;
}

} // namespace leca
