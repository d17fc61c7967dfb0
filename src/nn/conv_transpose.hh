/**
 * @file
 * Transposed 2-D convolution (the LeCA decoder's upsampling stage,
 * Table 2). Implemented as the exact adjoint of strided convolution.
 */

#ifndef LECA_NN_CONV_TRANSPOSE_HH
#define LECA_NN_CONV_TRANSPOSE_HH

#include <vector>

#include "nn/layer.hh"
#include "tensor/kernels.hh"
#include "util/rng.hh"

namespace leca {

/**
 * Transposed convolution with weight [Cin, Cout, K, K] (PyTorch layout),
 * stride s and no padding: output extent = (in - 1) * s + K.
 *
 * It runs on the fp32 conv engine (tensor/kernels.hh) through its
 * adjoint conv — the strided conv from the output extent back to the
 * input, whose weight matrix is W reshaped [Cin, Cout*K*K]:
 * Forward: y = col2im(W^T x), that conv's dX pass, plus the bias.
 * Backward: dX = W * im2col(dY), its forward pass; dW = X * im2col(dY)^T,
 * its dW pass. A layer whose Params were all frozen at its Train
 * forward computes dX only.
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

    /** The adjoint conv of an h×w input: its input is this layer's
     *  output, its output this layer's input. */
    ConvGeometry
    adjointGeometry(int h, int w) const
    {
        return {_cout, (h - 1) * _stride + _k, (w - 1) * _stride + _k,
                _cin, _k, _k, _stride, 0};
    }
};

} // namespace leca

#endif // LECA_NN_CONV_TRANSPOSE_HH
