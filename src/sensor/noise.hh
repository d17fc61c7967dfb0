/**
 * @file
 * Pixel-array noise model (Sec. 5.3): photon shot noise as a Poisson
 * process in the electron domain and Gaussian read noise, applied by
 * converting the digital image to its physical intensity and back.
 */

#ifndef LECA_SENSOR_NOISE_HH
#define LECA_SENSOR_NOISE_HH

#include "sensor/sensor_config.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"

namespace leca {

/**
 * Applies shot + read noise to images in [0,1].
 *
 * x -> electrons = x * fullWell; electrons' ~ Poisson(electrons)
 * + N(0, readNoise); x' = clamp(electrons' / fullWell).
 */
class PixelNoiseModel
{
  public:
    explicit PixelNoiseModel(SensorConfig config) : _config(config) {}

    /** Noisy copy of a scalar intensity. */
    float sampleIntensity(float x, Rng &rng) const;

    /** Noisy copy of a whole tensor of intensities. */
    Tensor apply(const Tensor &image, Rng &rng) const;

    const SensorConfig &config() const { return _config; }

  private:
    SensorConfig _config;
};

} // namespace leca

#endif // LECA_SENSOR_NOISE_HH
