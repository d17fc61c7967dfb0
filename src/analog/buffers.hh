/**
 * @file
 * Analog buffer models: the PMOS source follower (PSF) that drives the
 * SCM input and the flipped voltage follower (FVF) that drives the SAR
 * ADC (Fig. 7). Both are modelled as a mildly nonlinear transfer
 * function with per-instance mismatch; their per-sample thermal noise
 * (BufferParams::noiseSigma, Sec. 5.3, items 1 and 3) is drawn by the
 * chain's DieDevice (analog/chain.hh).
 */

#ifndef LECA_ANALOG_BUFFERS_HH
#define LECA_ANALOG_BUFFERS_HH

#include "analog/circuit_config.hh"
#include "util/rng.hh"

namespace leca {

/**
 * One physical buffer instance. Construction samples the instance's
 * mismatch (gain/offset deviation) from @p mc_rng, fixing it for the
 * lifetime of the object — mimicking one fabricated die.
 */
class SourceFollower
{
  public:
    /** Instantiate with Monte-Carlo sampled mismatch. */
    SourceFollower(const BufferParams &params, Rng &mc_rng);

    /** Instantiate the nominal (mismatch-free) device. */
    explicit SourceFollower(const BufferParams &params);

    /** Deterministic transfer including this instance's mismatch. */
    double transfer(double vin) const;

    /** The nominal linear model used in hard training: a*v + b. */
    double linearModel(double vin) const;

    const BufferParams &params() const { return _params; }

  private:
    BufferParams _params;
    double _gainDelta = 0.0;
    double _offsetDelta = 0.0;
};

} // namespace leca

#endif // LECA_ANALOG_BUFFERS_HH
