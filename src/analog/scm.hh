/**
 * @file
 * Switched-capacitor multiplier (SCM) behavioural model (Sec. 4.3).
 *
 * The SCM performs one multiply-accumulate per phi_sample/phi_transfer
 * cycle via charge redistribution between the 4-bit programmable
 * sampling cap and an o-buffer cap, following Eq. (3):
 *
 *   V_out[i] = ( C_s[i] (2 V_CM - V_in[i]) + C_out V_out[i-1] )
 *              / ( C_out + C_s[i] )
 *
 * The real device additionally exhibits incomplete charge transfer,
 * switch charge injection, per-unit-cap mismatch, and kT/C noise
 * (Sec. 5.3, item 2). Signed weights steer the charge to one of two
 * differential o-buffers (sign operation, Fig. 7).
 */

#ifndef LECA_ANALOG_SCM_HH
#define LECA_ANALOG_SCM_HH

#include <vector>

#include "analog/circuit_config.hh"
#include "util/rng.hh"

namespace leca {

/** A 5-bit hardware weight: sign + 4-bit magnitude code. */
struct ScmWeight
{
    int magnitude = 0;     //!< cap-DAC code, 0 .. dacSteps()
    bool negative = false; //!< steers charge to the negative o-buffer
};

/**
 * One SCM instance. Constructing with a Monte-Carlo stream samples the
 * per-unit-cap mismatch of this die; the nominal constructor yields the
 * mismatch-free device. The MAC sequence over signed weights is
 * accumulateTaps() in analog/chain.hh.
 */
class ScMultiplier
{
  public:
    /** Nominal (mismatch-free) device. */
    explicit ScMultiplier(const CircuitConfig &config);

    /** Device instance with Monte-Carlo sampled cap mismatch. */
    ScMultiplier(const CircuitConfig &config, Rng &mc_rng);

    /**
     * This instance's effective sampling cap for a magnitude code (fF):
     * its connected unit caps times the charge-transfer fraction.
     */
    double effectiveCapFf(int magnitude) const;

    /**
     * Ideal analytic recurrence, Eq. (3), with explicit capacitance.
     * Exposed statically so training code can differentiate through it.
     */
    static double idealStep(const CircuitConfig &config, double v_prev,
                            double v_in, double cs_ff);

    /**
     * One real sample/transfer cycle on an o-buffer: incomplete charge
     * transfer, injection offset, instance cap mismatch, and (when
     * @p noise_rng is non-null) kT/C noise.
     */
    double step(double v_prev, double v_in, int magnitude,
                Rng *noise_rng) const;

  private:
    CircuitConfig _config;
    std::vector<double> _capEff; //!< effectiveCapFf per code, 0..steps
};

} // namespace leca

#endif // LECA_ANALOG_SCM_HH
