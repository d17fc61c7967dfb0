/**
 * @file
 * Baseline JPEG-style codec (Sec. 6.4 "Standard compression"):
 * YCbCr transform, 8x8 DCT, standard quantization tables with quality
 * scaling, an entropy-size model for the achieved compression ratio,
 * and full decode for downstream evaluation.
 */

#ifndef LECA_COMPRESSION_JPEG_HH
#define LECA_COMPRESSION_JPEG_HH

#include "compression/dct.hh"
#include "compression/method.hh"

namespace leca {

/** JPEG-style codec; quality in [1, 100]. */
class JpegCodec : public CompressionMethod
{
  public:
    explicit JpegCodec(int quality = 50);

    std::string name() const override { return "JPEG"; }

    /** Entropy-model ratio of the last encoded batch. */
    double compressionRatio() const override { return _lastRatio; }

    /**
     * Wire: per image and plane (Y, Cb, Cr), each block's quantized
     * coefficients in zig-zag order (DC as a delta against the previous
     * block), each a zig-zag LEB128 varint — the byte stream a real
     * JPEG entropy stage codes.
     */
    WireStream wireSymbols(const Tensor &batch) override;

    EncodingDomain domain() const override
    {
        return EncodingDomain::Digital;
    }
    Objective objective() const override { return Objective::TaskAgnostic; }
    std::string hardwareOverhead() const override { return "High"; }

    /** Quantization step for coefficient (u,v) of the given plane. */
    float
    quantStep(int u, int v, bool chroma) const
    {
        return _steps[chroma][u * 8 + v];
    }

  private:
    Tensor decode(const WireStream &ws,
                  const std::vector<int> &shape) override;

    float _steps[2][64]; //!< [chroma][row-major (u,v)] step sizes
    double _lastRatio = 1.0;
    Dct8 _dct;
};

} // namespace leca

#endif // LECA_COMPRESSION_JPEG_HH
