/**
 * @file
 * 2-D convolution layer with hand-derived backward pass (implicit
 * im2col, tensor/kernels.hh).
 */

#ifndef LECA_NN_CONV_HH
#define LECA_NN_CONV_HH

#include <vector>

#include "nn/layer.hh"
#include "tensor/kernels.hh"
#include "tensor/quant.hh"
#include "util/rng.hh"

namespace leca {

/**
 * Standard 2-D convolution: weight [Cout, Cin, K, K], optional bias.
 *
 * Forward, dW = dY * cols^T (with db fused as the trailing column) and
 * dX = col2im(W^T * dY) are the three passes of the fp32 conv engine
 * (tensor/kernels.hh), which never materialises a column matrix; all
 * scratch and gradient partials live in the thread-local Arena, so a
 * warm train step performs zero heap allocation inside this layer. A
 * layer whose Params were all frozen at its Train forward skips the dW
 * pass and its fold and computes dX only.
 *
 * Once quantized, forward is Eval-only and runs the same fp32 conv
 * forward over the stored int8 codes, dequantized into arena scratch on
 * every call. A planned Sequential may instead run a wide quantized
 * conv (cin >= kResidentMinCin) as the resident int8 conv over
 * qweightHwc() (DESIGN.md §13); that path is reachable only through
 * the plan.
 */
class Conv2d : public Layer
{
  public:
    /**
     * @param cin     input channels
     * @param cout    output channels
     * @param k       square kernel extent
     * @param stride  stride (LeCA encoder uses stride == k)
     * @param pad     symmetric zero padding
     * @param bias    whether to learn a bias term
     * @param rng     initialisation stream (Kaiming)
     */
    Conv2d(int cin, int cout, int k, int stride, int pad, bool bias,
           Rng &rng);

    Tensor forward(const Tensor &x, Mode mode) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<Param *> params() override;
    void quantizeWeights(std::vector<QuantStat> &stats) override;
    std::vector<QuantTensor *> quantTensors() override { return {&_qweight}; }

    Param &weight() { return _weight; }
    const Param &weight() const { return _weight; }
    Param &bias() { return _bias; }
    bool hasBias() const { return _hasBias; }
    int stride() const { return _stride; }
    int pad() const { return _pad; }
    int kernel() const { return _k; }
    int cin() const { return _cin; }
    int cout() const { return _cout; }
    bool quantized() const { return !_qweight.empty(); }

    /** This conv's shape over [cin, h, w] inputs; the fp32 conv engine
     *  and the resident int8 conv both take it. */
    ConvGeometry
    geometry(int h, int w) const
    {
        return {_cin, h, w, _cout, _k, _k, _stride, _pad};
    }

    /**
     * The HWC-laid resident weight layout with its panel pack (empty
     * until prepareResident). Consumed by convForwardResident.
     */
    const QuantTensor &qweightHwc() const { return _qweightHwc; }

    /**
     * (Re)build the HWC resident layout from the CHW int8 CODES — not
     * from the fp32 weights — so quantize() and loadQuantized() yield
     * identical resident inference (DESIGN.md §13). Called at plan
     * time; always rebuilds, so a checkpoint restored over already-
     * quantized weights can never leave a stale layout behind.
     */
    void prepareResident();

  private:
    int _cin, _cout, _k, _stride, _pad;
    bool _hasBias;
    Param _weight;
    Param _bias;
    QuantTensor _qweight; //!< int8 weights; empty until quantizeWeights
    QuantTensor _qweightHwc; //!< resident layout; see prepareResident

    // Train-forward record: the input extents (_inN == 0 when no
    // backward is pending), whether every Param was frozen, and — only
    // when not — the input itself (K*K smaller than the column matrices
    // the dW pass recomputes from it; dX needs only dY and W).
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

#endif // LECA_NN_CONV_HH
