/**
 * @file
 * Base interface of the hand-rolled training framework.
 *
 * Every layer implements an explicit forward pass (caching whatever the
 * backward pass needs) and an explicit, hand-derived backward pass. There
 * is no tape/autograd: the LeCA pipeline is a fixed feed-forward stack,
 * so reverse-mode differentiation by composition is simpler to verify
 * (each layer's gradient is unit-tested against finite differences).
 */

#ifndef LECA_NN_LAYER_HH
#define LECA_NN_LAYER_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "nn/param.hh"
#include "tensor/tensor.hh"

namespace leca {

struct QuantTensor;

/** Whether a forward pass is part of training or evaluation. */
enum class Mode { Train, Eval };

/**
 * Per-layer record of one quantizeWeights() conversion, aggregated
 * into Pipeline::QuantizationReport (DESIGN.md §12).
 */
struct QuantStat
{
    std::string name;        //!< layer description, e.g. "Conv2d 3->16 k3"
    std::size_t fp32Bytes;   //!< weight bytes before quantization
    std::size_t quantBytes;  //!< codes + scales bytes after
    float maxAbsError;       //!< max |w - dequant(quant(w))| of the layer
};

/**
 * Abstract differentiable layer. A layer holds at most one outstanding
 * forward activation cache; calling backward() consumes it.
 */
class Layer
{
  public:
    virtual ~Layer() = default;

    /** Compute the output for @p x, caching intermediates when training. */
    virtual Tensor forward(const Tensor &x, Mode mode) = 0;

    /**
     * Propagate @p grad_out (dL/d output) backwards, accumulating
     * parameter gradients and returning dL/d input. A layer whose
     * parameters were all frozen at the Train-mode forward returns
     * dL/d input only and writes no gradient; a freeze() between the
     * forward and this call is a CheckError.
     */
    virtual Tensor backward(const Tensor &grad_out) = 0;

    /** All trainable parameters of this layer (and its children). */
    virtual std::vector<Param *> params() { return {}; }

    /**
     * Non-trainable persistent state (e.g. batch-norm running
     * statistics) that must be serialized alongside the parameters.
     */
    virtual std::vector<Tensor *> state() { return {}; }

    /**
     * Toggle batch-norm statistics refresh: while enabled, training-
     * mode forward passes recompute the running statistics as an exact
     * cumulative average instead of an exponential one. Used after
     * short trainings so evaluation-mode normalisation matches the
     * final activation distribution.
     */
    virtual void setStatsRefresh(bool enable) { (void)enable; }

    /**
     * Convert this layer's GEMM/conv weights to block-quantized int8
     * (tensor/quant.hh), appending one QuantStat per converted tensor.
     * After conversion, evaluation-mode forwards run the int8 kernels;
     * training-mode forwards are a checked error (the fp32 weights are
     * retained for checkpointing, but gradients would no longer match
     * what inference computes). Layers without dense weights (ReLU,
     * batch-norm, pooling) keep the default no-op.
     */
    virtual void quantizeWeights(std::vector<QuantStat> &stats)
    {
        (void)stats;
    }

    /**
     * The quantized weight tensors of this layer (and its children) in
     * a fixed traversal order — empty entries mean "not yet converted".
     * Serialization (data/serialize.cc, kind 3) walks this list.
     */
    virtual std::vector<QuantTensor *> quantTensors() { return {}; }

    /** Mark every parameter as frozen (or unfrozen). */
    void
    freeze(bool frozen = true)
    {
        for (Param *p : params())
            p->frozen = frozen;
    }
};

using LayerPtr = std::unique_ptr<Layer>;

} // namespace leca

#endif // LECA_NN_LAYER_HH
