/**
 * @file
 * Transposed 2-D convolution (the LeCA decoder's upsampling stage,
 * Table 2). Implemented as the exact adjoint of strided convolution.
 */

#ifndef LECA_NN_CONV_TRANSPOSE_HH
#define LECA_NN_CONV_TRANSPOSE_HH

#include <vector>

#include "nn/layer.hh"
#include "util/rng.hh"

namespace leca {

/**
 * Transposed convolution with weight [Cin, Cout, K, K] (PyTorch layout),
 * stride s and no padding: output extent = (in - 1) * s + K.
 *
 * Forward: cols = W^T x  folded with col2im.
 * Backward: dX = W * im2col(dY), dW = X * im2col(dY)^T; a layer whose
 * Params were all frozen at its Train forward computes dX only.
 */
class ConvTranspose2d : public Layer
{
  public:
    ConvTranspose2d(int cin, int cout, int k, int stride, bool bias,
                    Rng &rng);

    Tensor forward(const Tensor &x, Mode mode) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<Param *> params() override;

    Param &weight() { return _weight; }

  private:
    int _cin, _cout, _k, _stride;
    bool _hasBias;
    Param _weight;
    Param _bias;

    // Train-forward record: the input extents (_inN == 0 when no
    // backward is pending), whether every Param was frozen, and — only
    // when not — the input itself, which only dW reads.
    int _inN = 0, _inH = 0, _inW = 0;
    bool _fwdFrozen = false;
    Tensor _input;

    bool
    frozen() const
    {
        return _weight.frozen && (!_hasBias || _bias.frozen);
    }
};

} // namespace leca

#endif // LECA_NN_CONV_TRANSPOSE_HH
