/**
 * @file
 * Pooling layers: global average pooling (the backbone's head
 * flattens through it) and the dense-head reshape.
 */

#ifndef LECA_NN_POOL_HH
#define LECA_NN_POOL_HH

#include "nn/layer.hh"

namespace leca {

/** [N,C,H,W] -> [N, C*H*W] reshape (for dense heads). */
class Flatten : public Layer
{
  public:
    Tensor forward(const Tensor &x, Mode mode) override;
    Tensor backward(const Tensor &grad_out) override;

  private:
    std::vector<int> _inShape;
};

/** [N,C,H,W] -> [N,C] mean over the spatial plane. */
class GlobalAvgPool : public Layer
{
  public:
    Tensor forward(const Tensor &x, Mode mode) override;
    Tensor backward(const Tensor &grad_out) override;

  private:
    std::vector<int> _inShape;
};

} // namespace leca

#endif // LECA_NN_POOL_HH
