#include "adc.hh"

#include "util/check.hh"

namespace leca {

VariableResolutionAdc::VariableResolutionAdc(const CircuitConfig &config,
                                             Rng &mc_rng)
    : _offset(mc_rng.gaussian(0.0, config.adcOffsetSigma))
{
}

void
VariableResolutionAdc::configure(QBits qbits, double full_scale)
{
    // levels() validates the bit depth itself (1.5 ternary or 1..16).
    LECA_CHECK(qbits.levels() >= 2, "ADC needs at least 2 levels");
    LECA_CHECK(qbits.bits() <= 8.0, "ADC resolution ", qbits.bits(),
               " bits exceeds the 8-bit SAR design (Sec. 4.3)");
    LECA_CHECK(full_scale > 0.0, "ADC full scale ", full_scale,
               " V must be positive");
    _qbits = qbits;
    _fullScale = full_scale;
}

int
VariableResolutionAdc::convert(double v_diff) const
{
    double v = v_diff;
    if (!_calibrated)
        v += _offset;
    return quantizeCode(static_cast<float>(v),
                        static_cast<float>(-_fullScale),
                        static_cast<float>(_fullScale), levels());
}

} // namespace leca
