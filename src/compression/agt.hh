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

    /** Pixels per kept sample in the last encoded batch. */
    double compressionRatio() const override { return _lastRatio; }

    /**
     * Wire: per row, one (LEB128 gap from the previous kept pixel,
     * 8-bit code) pair per kept sample. The first pixel (gap 0) and the
     * last are always kept, so the decoder knows where a row ends.
     * rawBits counts the 8-bit codes only, the paper's accounting.
     */
    WireStream wireSymbols(const Tensor &batch) override;
    EncodingDomain domain() const override { return EncodingDomain::Mixed; }
    Objective objective() const override { return Objective::TaskAgnostic; }
    std::string hardwareOverhead() const override { return "Medium"; }

    /**
     * Binary-search the threshold so the kept-pixel ratio approaches
     * 1/target_ratio on @p calibration images.
     */
    void calibrate(const Tensor &calibration, double target_ratio);

  private:
    Tensor decode(const WireStream &ws,
                  const std::vector<int> &shape) override;

    float _threshold;
    double _lastRatio = 4.0;

    /** Append one row's kept samples to @p out; returns their count. */
    int encodeRow(const float *src, int width,
                  std::vector<std::uint8_t> &out) const;
};

} // namespace leca

#endif // LECA_COMPRESSION_AGT_HH
