/**
 * @file
 * Fully-connected layer (classifier head of the backbone networks).
 */

#ifndef LECA_NN_LINEAR_HH
#define LECA_NN_LINEAR_HH

#include "nn/layer.hh"
#include "tensor/quant.hh"
#include "util/rng.hh"

namespace leca {

/**
 * y = x W^T + b with x [N, in], W [out, in], b [out]. A layer whose
 * Params were all frozen at its Train forward computes dX only.
 */
class Linear : public Layer
{
  public:
    Linear(int in_features, int out_features, Rng &rng);

    Tensor forward(const Tensor &x, Mode mode) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<Param *> params() override { return {&_weight, &_bias}; }
    void quantizeWeights(std::vector<QuantStat> &stats) override;
    std::vector<QuantTensor *> quantTensors() override { return {&_qweight}; }

    Param &weight() { return _weight; }
    Param &bias() { return _bias; }

  private:
    int _in, _out;
    Param _weight;
    Param _bias;
    QuantTensor _qweight; //!< int8 weights; empty until quantizeWeights

    // Train-forward record: the batch size (_inN == 0 when no backward
    // is pending), whether every Param was frozen, and — only when not
    // — the input itself, which only dW reads.
    int _inN = 0;
    bool _fwdFrozen = false;
    Tensor _input;

    bool frozen() const { return _weight.frozen && _bias.frozen; }
};

} // namespace leca

#endif // LECA_NN_LINEAR_HH
