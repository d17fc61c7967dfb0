/**
 * @file
 * Batch normalisation over the channel dimension of [N,C,H,W] tensors
 * (used by the backbone residual blocks and the LeCA decoder head,
 * Table 2).
 */

#ifndef LECA_NN_BATCHNORM_HH
#define LECA_NN_BATCHNORM_HH

#include "nn/layer.hh"

namespace leca {

/**
 * BatchNorm2d with learnable affine (gamma, beta) and running statistics
 * for evaluation mode. A layer whose Params were both frozen at its
 * Train forward computes dX only and leaves gamma/beta grads untouched.
 */
class BatchNorm2d : public Layer
{
  public:
    explicit BatchNorm2d(int channels, float momentum = 0.1f,
                         float eps = 1e-5f);

    Tensor forward(const Tensor &x, Mode mode) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<Param *> params() override { return {&_gamma, &_beta}; }
    std::vector<Tensor *> state() override
    {
        return {&_runningMean, &_runningVar};
    }

    /**
     * Toggle the statistics refresh: while enabled, training-mode
     * forward passes recompute the running statistics as an exact
     * cumulative average instead of an exponential one
     * (refreshBatchNormStats, data/trainloop.hh).
     */
    void setStatsRefresh(bool enable);

    /**
     * The eval-mode normalisation as one per-channel affine y = a·x + b
     * with a = gamma/sqrt(var+eps), b = beta − a·mean — the form the
     * resident conv epilogue fuses (DESIGN.md §13). Algebraically equal
     * to the eval forward; the fused form is what the quantized plan
     * pins as ITS deterministic reference. @p a and @p b hold
     * channels() floats.
     */
    void evalAffineInto(float *a, float *b) const;

    int channels() const { return _channels; }

  private:
    int _channels;
    float _momentum;
    float _eps;
    Param _gamma;
    Param _beta;
    Tensor _runningMean;
    Tensor _runningVar;
    bool _refresh = false;
    long _refreshCount = 0;

    // Forward cache (training mode).
    Tensor _xhat;
    std::vector<float> _batchStd; // per-channel sqrt(var + eps)
    bool _fwdFrozen = false;      // both Params frozen at the forward

    bool frozen() const { return _gamma.frozen && _beta.frozen; }
};

} // namespace leca

#endif // LECA_NN_BATCHNORM_HH
