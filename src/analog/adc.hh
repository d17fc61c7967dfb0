/**
 * @file
 * Variable-resolution ADC models (Sec. 4.3): a ternary comparator
 * (T-CMP) for the 1.5-bit configuration and a SAR ADC for 2..8-bit,
 * both quantizing the differential o-buffer output. The full-scale
 * range is programmable — the paper trains the ADC's quantization
 * boundary directly (Sec. 3.4), which maps to this register.
 */

#ifndef LECA_ANALOG_ADC_HH
#define LECA_ANALOG_ADC_HH

#include "analog/circuit_config.hh"
#include "nn/quantize.hh"
#include "util/rng.hh"

namespace leca {

/**
 * Resolution-reconfigurable differential-input ADC.
 *
 * Codes are uniform over [-fullScale, +fullScale]; code 0 maps to
 * -fullScale and code (levels-1) to +fullScale. The instance carries a
 * Monte-Carlo sampled comparator offset which digital calibration can
 * cancel (Sec. 4.4: "the ADC's nonlinearity and offset can be easily
 * calibrated digitally").
 */
class VariableResolutionAdc
{
  public:
    /** Nominal (offset-free) converter. */
    VariableResolutionAdc() = default;

    /** Instance with Monte-Carlo sampled comparator offset. */
    VariableResolutionAdc(const CircuitConfig &config, Rng &mc_rng);

    /** Select resolution and programmable full-scale range. */
    void configure(QBits qbits, double full_scale);

    /** Apply digital offset calibration (zeroes the static offset). */
    void calibrate() { _calibrated = true; }

    /**
     * Convert a differential voltage to a code in [0, levels). The
     * static comparator offset applies until calibrate(); per-sample
     * conversion noise is the chain's ADC input stage (analog/chain.hh).
     */
    int convert(double v_diff) const;

    /** Code count at the current resolution. */
    int levels() const { return _qbits.levels(); }

    QBits qbits() const { return _qbits; }

  private:
    QBits _qbits{4.0};
    double _fullScale = 0.5;
    double _offset = 0.0;
    bool _calibrated = false;
};

} // namespace leca

#endif // LECA_ANALOG_ADC_HH
