/**
 * @file
 * Block-based compressive sensing baseline (Sec. 5.1, after [63]):
 * each 8x8 block is measured through a random +/-1 matrix; the image
 * is reconstructed by iterative soft thresholding (ISTA) under a DCT
 * sparsity prior — the slowly-converging optimization the paper calls
 * out as CS's weakness for real-time vision (Sec. 2.2).
 */

#ifndef LECA_COMPRESSION_COMPRESSIVE_SENSING_HH
#define LECA_COMPRESSION_COMPRESSIVE_SENSING_HH

#include <cstdint>
#include <vector>

#include "compression/dct.hh"
#include "compression/method.hh"

namespace leca {

/** Compressive-sensing codec over non-overlapping 8x8 blocks. */
class CompressiveSensing : public CompressionMethod
{
  public:
    /**
     * @param ratio       N/m measurement compression (4 in the paper)
     * @param seed        random measurement matrix seed
     * @param ista_iters  reconstruction iterations
     */
    explicit CompressiveSensing(int ratio = 4, std::uint64_t seed = 42,
                                int ista_iters = 120);

    std::string name() const override { return "CS"; }
    double compressionRatio() const override { return _ratio; }

    /** Wire: 10-bit measurement codes, two little-endian bytes each. */
    WireStream wireSymbols(const Tensor &batch) override;

    EncodingDomain domain() const override { return EncodingDomain::Analog; }
    Objective objective() const override { return Objective::TaskAgnostic; }
    std::string hardwareOverhead() const override { return "Low"; }

    /** Project an 8x8 block to its measurements' wire codes. */
    void measureBlock(const float *block, std::uint8_t *codes) const;

    /** FISTA reconstruction of one block from its measureBlock() codes. */
    void reconstructBlock(const std::uint8_t *codes, float *block) const;

  private:
    Tensor decode(const WireStream &ws,
                  const std::vector<int> &shape) override;

    int _ratio;
    int _m;         //!< measurements per 64-sample block (<= 64)
    int _istaIters;
    Dct8 _dct;
    std::vector<float> _phi; //!< m x 64 random +/-1/sqrt(m)
    std::vector<float> _a;   //!< m x 64 sensing-in-DCT-domain matrix
    double _step;            //!< ISTA step size
    double _lambda;          //!< soft threshold
};

} // namespace leca

#endif // LECA_COMPRESSION_COMPRESSIVE_SENSING_HH
