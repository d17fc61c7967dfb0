/**
 * @file
 * The PE's analog MAC chain (Fig. 7), written once and run by the
 * hard/noisy encoder, the chip's PE and AnalogChain::encode:
 * accumulateTaps() charges one kernel's taps onto a differential
 * o-buffer pair (PSF, SCM), readOut() returns the ADC input (FVF). Both
 * run over a device model — IdealDevice, DieDevice or ExtractedDevice —
 * with the stages psf() (a pixel's deterministic PSF transfer, which
 * callers hoist and share across kernels), sample() / mean() (a PSF
 * output drawn from it, its mean), step() (one Eq. (3) cycle), fvf()
 * and adcInput().
 */

#ifndef LECA_ANALOG_CHAIN_HH
#define LECA_ANALOG_CHAIN_HH

#include <vector>

#include "analog/adc.hh"
#include "analog/buffers.hh"
#include "analog/circuit_config.hh"
#include "analog/mismatch.hh"
#include "analog/scm.hh"

namespace leca {

/** State of the differential o-buffer pair during a MAC sequence. */
struct DiffBuffer
{
    double vPlus;
    double vMinus;

    explicit DiffBuffer(double v_cm) : vPlus(v_cm), vMinus(v_cm) {}

    /** Differential output seen by the ADC. */
    double diff() const { return vPlus - vMinus; }
};

/** One PE's analog devices. */
struct AnalogChain
{
    SourceFollower psf;
    ScMultiplier scm;
    SourceFollower fvf;
    VariableResolutionAdc adc;
    CircuitConfig config;

    /** Nominal chain: the analytical model used by hard training. */
    static AnalogChain nominal(const CircuitConfig &config);

    /** Chain with Monte-Carlo sampled mismatch on every stage. */
    static AnalogChain sample(const CircuitConfig &config, Rng &mc_rng);

    /**
     * Run a complete encode of one MAC sequence: PSF-buffer each input,
     * run the SCM sequence on the differential o-buffers, FVF-buffer
     * both rails, and convert with the ADC.
     *
     * @param ideal      use nominal analytic models without noise
     * @param noise_rng  per-sample noise source (ignored when ideal)
     * @return ADC output code
     */
    int encode(const std::vector<double> &v_pixels,
               const std::vector<ScmWeight> &weights, bool ideal,
               Rng *noise_rng) const;

    /** Call @p fn with the IdealDevice if @p ideal, else this die. */
    template <class Fn>
    decltype(auto) withDevice(bool ideal, Rng *noise_rng, Fn &&fn) const;
};

/** Linear buffers, nominal caps, no noise: the hard training model. */
class IdealDevice
{
  public:
    using Level = double; //!< the PSF output itself

    explicit IdealDevice(const CircuitConfig &config)
        : _config(config), _psf(config.psf), _fvf(config.fvf),
          _unitCapFf(config.unitCapFf())
    {
    }

    Level psf(double v_pixel) const { return _psf.linearModel(v_pixel); }
    double sample(Level v_in) const { return v_in; }
    double mean(Level v_in) const { return v_in; }
    double fvf(double v) const { return _fvf.linearModel(v); }
    double adcInput(double diff) const { return diff; }

    double
    step(double v_prev, double v_in, int magnitude) const
    {
        return ScMultiplier::idealStep(_config, v_prev, v_in,
                                       _unitCapFf * magnitude);
    }

  private:
    const CircuitConfig &_config;
    SourceFollower _psf, _fvf;
    double _unitCapFf;
};

/** One die: an AnalogChain's instance transfers, noisy given a stream. */
class DieDevice
{
  public:
    using Level = double; //!< the instance's PSF transfer

    DieDevice(const AnalogChain &chain, Rng *noise_rng)
        : _chain(chain), _config(chain.config), _noise(noise_rng)
    {
    }

    Level psf(double v_pixel) const { return _chain.psf.transfer(v_pixel); }
    double sample(Level v) const { return noisy(v, _config.psf.noiseSigma); }
    double mean(Level v_in) const { return v_in; }
    double adcInput(double d) const { return noisy(d, _config.adcNoiseSigma); }

    double
    step(double v_prev, double v_in, int magnitude) const
    {
        return _chain.scm.step(v_prev, v_in, magnitude, _noise);
    }

    double
    fvf(double v) const
    {
        return noisy(_chain.fvf.transfer(v), _config.fvf.noiseSigma);
    }

  private:
    const AnalogChain &_chain;
    const CircuitConfig &_config;
    Rng *_noise;

    double
    noisy(double v, double sigma) const
    {
        return _noise ? v + _noise->gaussian(0.0, sigma) : v;
    }
};

/**
 * The extracted noisy-training model (Sec. 5.3): LUT means + Gaussian
 * buffers, the ideal step minus a Gaussian error around eps(V_in, code).
 */
class ExtractedDevice
{
  public:
    struct Level
    {
        double mean, sigma; //!< LUT mean of the PSF output, its sigma
    };

    ExtractedDevice(const AnalogNoiseModel &model,
                    const CircuitConfig &config, Rng &noise_rng)
        : _model(model), _ideal(config), _noise(noise_rng)
    {
    }

    Level
    psf(double v_pixel) const
    {
        return {_model.psf.meanTransfer(v_pixel), _model.psf.sigma(v_pixel)};
    }

    double sample(Level l) const { return _noise.gaussian(l.mean, l.sigma); }
    double mean(Level l) const { return l.mean; }

    double
    step(double v_prev, double v_in, int magnitude) const
    {
        const auto code = static_cast<std::size_t>(magnitude);
        return _ideal.step(v_prev, v_in, magnitude)
               - _noise.gaussian(_model.scm.epsSurface(v_in, magnitude),
                                 _model.scm.epsSigma[code]);
    }

    double
    fvf(double v) const
    {
        return _noise.gaussian(_model.fvf.meanTransfer(v),
                               _model.fvf.sigma(v));
    }

    double
    adcInput(double diff) const
    {
        return diff + _noise.gaussian(0.0, _model.adcOffsetSigma);
    }

  private:
    const AnalogNoiseModel &_model;
    IdealDevice _ideal;
    Rng &_noise;
};

/**
 * One kernel's MAC sequence on a differential o-buffer pair: for tap t,
 * sample the PSF output from @p input(t) (the Level of the pixel it
 * reads), let the weight's sign pick the rail, and run the Eq. (3)
 * step. A zero-magnitude tap connects no sampling cap, so it moves no
 * charge and draws no noise. With @p vin_cache set, tap t records its
 * SCM input (the PSF mean for a zero tap) and the rail before the step,
 * for the hand-derived backward.
 */
template <class Device, class Input>
inline void
accumulateTaps(const Device &dev, const ScmWeight *weights, int count,
               Input &&input, DiffBuffer &buffer,
               float *vin_cache = nullptr, float *vprev_cache = nullptr)
{
    for (int t = 0; t < count; ++t) {
        const ScmWeight w = weights[t];
        double &rail = w.negative ? buffer.vMinus : buffer.vPlus;
        const double v_in =
            w.magnitude ? dev.sample(input(t)) : dev.mean(input(t));
        if (vin_cache) {
            vin_cache[t] = static_cast<float>(v_in);
            vprev_cache[t] = static_cast<float>(rail);
        }
        if (w.magnitude)
            rail = dev.step(rail, v_in, w.magnitude);
    }
}

/** FVF-buffer both rails of @p buffer; return the ADC input voltage. */
template <class Device>
inline double
readOut(const Device &dev, const DiffBuffer &buffer)
{
    const double plus = dev.fvf(buffer.vPlus);
    const double minus = dev.fvf(buffer.vMinus);
    return dev.adcInput(plus - minus);
}

template <class Fn>
decltype(auto)
AnalogChain::withDevice(bool ideal, Rng *noise_rng, Fn &&fn) const
{
    if (ideal)
        return fn(IdealDevice(config));
    return fn(DieDevice(*this, noise_rng));
}

} // namespace leca

#endif // LECA_ANALOG_CHAIN_HH
