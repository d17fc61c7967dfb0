/**
 * @file
 * Accumulated gradient thresholding baseline (Sec. 5.1, after [38]):
 * pixel gradients are accumulated along each row and pixels are
 * skipped until the running sum crosses a threshold; skipped pixels
 * are reconstructed by interpolation between the kept samples.
 */

#ifndef LECA_COMPRESSION_AGT_HH
#define LECA_COMPRESSION_AGT_HH

#include "compression/method.hh"

namespace leca {

/** AGT codec with a tunable skip threshold. */
class AccumGradientThreshold : public CompressionMethod
{
  public:
    /** @param threshold accumulated |gradient| that forces a sample. */
    explicit AccumGradientThreshold(float threshold = 0.12f);

    std::string name() const override { return "AGT"; }
    double compressionRatio() const override { return _lastRatio; }
    Tensor processImpl(const Tensor &batch) override;
    EncodingDomain domain() const override { return EncodingDomain::Mixed; }
    Objective objective() const override { return Objective::TaskAgnostic; }
    std::string hardwareOverhead() const override { return "Medium"; }

    /**
     * Binary-search the threshold so the kept-pixel ratio approaches
     * 1/target_ratio on @p calibration images.
     */
    void calibrate(const Tensor &calibration, double target_ratio);

    float threshold() const { return _threshold; }

  private:
    float _threshold;
    double _lastRatio = 4.0;

    /** Process one row of one channel; returns kept count. */
    int processRow(const float *src, float *dst, int width) const;
};

} // namespace leca

#endif // LECA_COMPRESSION_AGT_HH
