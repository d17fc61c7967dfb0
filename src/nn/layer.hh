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

    /**
     * The layers this one is made of, in the fixed order every walk of
     * the tree below keeps (and the checkpoint byte layout depends on).
     * Empty for a leaf; a container lists its children and inherits
     * every enumeration.
     */
    virtual std::vector<Layer *> children() { return {}; }

    /** All trainable parameters of this layer (and its children). */
    virtual std::vector<Param *> params() { return gather(&Layer::params); }

    /**
     * Non-trainable persistent state (e.g. batch-norm running
     * statistics) that must be serialized alongside the parameters.
     */
    virtual std::vector<Tensor *> state() { return gather(&Layer::state); }

    /**
     * Convert this layer's GEMM/conv weights to block-quantized int8
     * (tensor/quant.hh), appending one QuantStat per converted tensor.
     * Conversion builds no execution plan: planQuantized()
     * (nn/sequential.hh) runs once over the converted tree. After both,
     * evaluation-mode forwards compute with the quantized weights —
     * Linear through the int8 kernels, Conv2d through the fp32 conv
     * over its dequantized codes unless a planned Sequential runs it
     * resident (DESIGN.md §13); training-mode forwards are a checked
     * error (the fp32 weights are retained for checkpointing, but
     * gradients would no longer match what inference computes). Layers
     * without dense weights (ReLU, batch-norm, pooling) convert
     * nothing.
     */
    // leca-analyze: cold — one-shot weight conversion (setup)
    virtual void
    quantizeWeights(std::vector<QuantStat> &stats)
    {
        for (Layer *child : children())
            child->quantizeWeights(stats);
    }

    /**
     * The quantized weight tensors of this layer (and its children) in
     * a fixed traversal order — empty entries mean "not yet converted".
     * Quantized checkpoints (data/serialize.hh, container kind 5) walk
     * this list.
     */
    virtual std::vector<QuantTensor *>
    quantTensors()
    {
        return gather(&Layer::quantTensors);
    }

    /** Mark every parameter as frozen (or unfrozen). */
    void
    freeze(bool frozen = true)
    {
        for (Param *p : params())
            p->frozen = frozen;
    }

  private:
    /** @p get of every child, concatenated in children() order. */
    // leca-analyze: cold — tree enumeration (setup)
    template <typename T>
    std::vector<T *>
    gather(std::vector<T *> (Layer::*get)())
    {
        std::vector<T *> out;
        for (Layer *child : children()) {
            const std::vector<T *> more = (child->*get)();
            out.insert(out.end(), more.begin(), more.end());
        }
        return out;
    }
};

/** Call @p visit on @p layer, then on every layer below it in tree order. */
// leca-analyze: cold — tree walk (setup)
template <typename Visit>
void
forEachLayer(Layer &layer, Visit &&visit)
{
    visit(layer);
    for (Layer *child : layer.children())
        forEachLayer(*child, visit);
}

using LayerPtr = std::unique_ptr<Layer>;

} // namespace leca

#endif // LECA_NN_LAYER_HH
