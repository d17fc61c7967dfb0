/**
 * @file
 * Zonal 8x8 DCT baseline — the "DCT" row of the codec comparison: the
 * classic fixed-rate transform codec that keeps only the first `kept`
 * zig-zag coefficients of every 8x8 block at 8 bits and zeroes the
 * rest. Unlike JPEG it has no quality tables or variable-length
 * framing, so its wire is a fixed-rate coefficient stream — the
 * simplest transform-coding point between raw pixels and JPEG.
 */

#ifndef LECA_COMPRESSION_ZONAL_DCT_HH
#define LECA_COMPRESSION_ZONAL_DCT_HH

#include "compression/dct.hh"
#include "compression/method.hh"

namespace leca {

/** Fixed-rate zonal DCT codec; CR = 64 / kept. */
class ZonalDct : public CompressionMethod
{
  public:
    /** @param kept zig-zag coefficients retained per 8x8 block. */
    explicit ZonalDct(int kept = 16);

    std::string name() const override { return "DCT"; }
    double compressionRatio() const override { return 64.0 / _kept; }

    /** Wire: 8-bit codes of the kept coefficients, zig-zag order. */
    WireStream wireSymbols(const Tensor &batch) override;

    EncodingDomain domain() const override
    {
        return EncodingDomain::Digital;
    }
    Objective objective() const override { return Objective::TaskAgnostic; }
    std::string hardwareOverhead() const override { return "Medium"; }

  private:
    Tensor decode(const WireStream &ws,
                  const std::vector<int> &shape) override;

    int _kept;
    Dct8 _dct;

    /** Coefficient quantizer range: orthonormal DC of [-0.5,0.5]^64. */
    static constexpr float kCoeffRange = 4.0f;
};

} // namespace leca

#endif // LECA_COMPRESSION_ZONAL_DCT_HH
