/**
 * @file
 * Microshift baseline (Sec. 5.1, after [83]): a fixed sub-quantizer
 * value-shifting pattern is added to each block of pixels before
 * coarse quantization; the decoder subtracts the known pattern and
 * smooths, recovering intermediate intensities from the spatial dither.
 */

#ifndef LECA_COMPRESSION_MICROSHIFT_HH
#define LECA_COMPRESSION_MICROSHIFT_HH

#include "compression/method.hh"

namespace leca {

/** Microshift codec with a 4x4 shift pattern and Q_bit quantization. */
class Microshift : public CompressionMethod
{
  public:
    /** @param bits coarse quantizer depth (2 in the paper's Fig. 13). */
    explicit Microshift(int bits = 2);

    std::string name() const override { return "MS"; }
    /** Image dependent 4x..5x in the paper; nominal bit ratio here. */
    double compressionRatio() const override { return 8.0 / _bits; }

    /** Wire: the shifted coarse Q_bit codes, one per pixel. */
    WireStream wireSymbols(const Tensor &batch) override;

    EncodingDomain domain() const override
    {
        return EncodingDomain::Digital;
    }
    Objective objective() const override { return Objective::TaskAgnostic; }
    std::string hardwareOverhead() const override { return "Medium"; }

    /** The shift (fraction of one quantizer step) at pattern (y, x). */
    float shiftAt(int y, int x) const;

  private:
    Tensor decode(const WireStream &ws,
                  const std::vector<int> &shape) override;

    int _bits;
    int _levels;
};

} // namespace leca

#endif // LECA_COMPRESSION_MICROSHIFT_HH
