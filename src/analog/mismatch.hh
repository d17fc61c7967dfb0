/**
 * @file
 * Monte-Carlo extraction of the hardware non-ideality model used by
 * noisy training (Sec. 5.3). The paper runs 200-sample Monte-Carlo
 * SPICE simulations per stage and reduces them to LUT + Gaussian
 * disturbance models; here the same reduction is applied to the
 * behavioural device models:
 *
 *   V_in[i]  = N( LUT_PSF(V_pixel[i]),        sigma_PSF )
 *   V_out[i] = LUT_SCM(V_in[i], w[i]) - N( eps_SCM, sigma_SCM )
 *   V_ADC[i] = N( LUT_FVF(V_out[i]),          sigma_FVF )
 */

#ifndef LECA_ANALOG_MISMATCH_HH
#define LECA_ANALOG_MISMATCH_HH

#include <vector>

#include "analog/circuit_config.hh"
#include "analog/lut.hh"
#include "util/rng.hh"

namespace leca {

/** LUT-plus-Gaussian model of one buffer stage. */
struct StageModel
{
    Lut1d meanTransfer; //!< population-mean transfer function
    Lut1d sigma;        //!< input-dependent disturbance sigma
};

/** Per-code error model of the SCM step relative to ideal Eq. (3). */
struct ScmErrorModel
{
    std::vector<double> epsMean;  //!< mean step error per cap code
    std::vector<double> epsSigma; //!< step-error sigma per cap code
    /**
     * Fine-grained error surface eps(V_in, code) (the paper's
     * "stage-wise, fine-grained look-up-tables", Sec. 4.4): the mean
     * step error the noisy modality draws around. extractNoiseModel
     * always fills it.
     */
    Lut2d epsSurface;
};

/** Complete extracted non-ideality model for noisy training. */
struct AnalogNoiseModel
{
    StageModel psf;
    StageModel fvf;
    ScmErrorModel scm;
    double adcOffsetSigma = 0.0;
};

/**
 * Extract the noise model by instantiating @p samples Monte-Carlo
 * device chains and aggregating their transfer statistics
 * (the paper uses samples = 200).
 */
AnalogNoiseModel extractNoiseModel(const CircuitConfig &config, int samples,
                                   Rng &mc_rng);

} // namespace leca

#endif // LECA_ANALOG_MISMATCH_HH
