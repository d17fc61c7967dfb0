/**
 * @file
 * Container layers: Sequential composition and residual blocks
 * (the backbone networks are ResNet-style stacks of these).
 */

#ifndef LECA_NN_SEQUENTIAL_HH
#define LECA_NN_SEQUENTIAL_HH

#include <memory>
#include <vector>

#include "nn/layer.hh"
#include "util/rng.hh"

namespace leca {

class Conv2d;
class BatchNorm2d;
struct QuantActivation;

/**
 * Smallest input-channel count for which a quantized conv consumes
 * resident int8 codes (DESIGN.md §13). Below it (e.g. the 3-channel
 * backbone stem and the decoder's 3-channel convs) block padding
 * inflates the patch MACs so much that the fp32 packed conv over the
 * dequantized codes is faster, so those convs run their own forward as
 * Plain steps.
 */
inline constexpr int kResidentMinCin = 16;

/**
 * One step of a Sequential's quantized execution plan, decided once at
 * quantize()/loadQuantized() time — never per forward (DESIGN.md §13).
 * ConvResident folds a following BatchNorm2d (eval affine) and Relu
 * into the conv epilogue; Residual delegates to
 * ResidualBlock::forwardResident; Gap pools straight over resident
 * codes; Plain runs the layer's normal forward on fp32.
 * emitQuant: leave the step's output resident for the next step.
 */
struct QuantStep
{
    enum class Kind
    {
        Plain,
        ConvResident,
        Residual,
        Gap,
        /** Fp32 producer -> resident consumer boundary with the
         *  intervening BatchNorm/ReLU fused into the entry quantize
         *  (one pass over the planes instead of three). */
        FusedEntry
    };
    Kind kind = Kind::Plain;
    Layer *layer = nullptr;    //!< Plain/Residual/Gap target
    Conv2d *conv = nullptr;    //!< ConvResident only
    BatchNorm2d *bn = nullptr; //!< folded into the epilogue (may be null)
    bool relu = false;         //!< folded trailing ReLU
    bool emitQuant = false;    //!< output stays resident int8
};

/**
 * Build the quantized execution plan of every Sequential in @p root's
 * tree and the int8 pack of every quantized Linear in it: the one
 * planning pass, run once after the weights were converted
 * (quantizeWeights) or restored (LecaPipeline::quantize and
 * loadQuantized both end in it). Each Sequential classifies its own
 * children as resident or plain steps, folds conv→BN→ReLU runs,
 * builds the HWC weight layouts of the convs it runs resident, and
 * decides the precision boundaries (which steps hand codes to the
 * next); a residual block's convs are prepared by the plans of its own
 * paths. So each resident conv's layout is built once per pass. A
 * Sequential with no resident-capable child keeps an empty plan, and
 * its forward() is unchanged.
 */
void planQuantized(Layer &root);

/** Runs child layers in order; backward runs them in reverse. */
class Sequential : public Layer
{
  public:
    Sequential() = default;

    /** Append a child layer; returns *this for chaining. */
    Sequential &add(LayerPtr layer);

    /** Emplace-construct a child layer. */
    template <typename L, typename... Args>
    L &
    emplace(Args &&...args)
    {
        auto layer = std::make_unique<L>(std::forward<Args>(args)...);
        L &ref = *layer;
        _layers.push_back(std::move(layer));
        return ref;
    }

    Tensor forward(const Tensor &x, Mode mode) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<Layer *> children() override;

    std::size_t size() const { return _layers.size(); }
    Layer &at(std::size_t i) { return *_layers[i]; }

    // leca-analyze: keep: test hook — the planner tests read the plan
    const std::vector<QuantStep> &quantPlan() const { return _plan; }

  private:
    friend void planQuantized(Layer &root);

    /** (Re)build this Sequential's own plan (see planQuantized). */
    void planSteps();
    Tensor forwardPlanned(const Tensor &x);

    std::vector<LayerPtr> _layers;
    std::vector<QuantStep> _plan; //!< empty until planQuantized
};

/**
 * ResNet basic block: conv-bn-relu-conv-bn + skip, final relu.
 * When the channel count or stride changes, the skip path uses a
 * 1x1 strided projection (conv + bn), as in He et al.
 */
class ResidualBlock : public Layer
{
  public:
    ResidualBlock(int cin, int cout, int stride, Rng &rng);

    Tensor forward(const Tensor &x, Mode mode) override;
    Tensor backward(const Tensor &grad_out) override;
    /** The main path, the projection (empty for an identity skip),
     *  then the final ReLU. */
    std::vector<Layer *>
    children() override
    {
        return {&_main, &_proj, _finalRelu.get()};
    }

    /**
     * Decide whether the block runs resident (DESIGN.md §13): every
     * conv is quantized and reads at least kResidentMinCin channels,
     * so the plans of the block's own paths, which planQuantized builds
     * too, prepare each one's HWC layout. Called from the owning
     * Sequential's plan; builds nothing.
     */
    bool planResident();
    bool resident() const { return _resident; }

    int outChannels() const;
    void outShape(int h, int w, int &oh, int &ow) const;

    /**
     * Resident Eval forward: conv1(+bn1+relu) emits a resident
     * activation, and the projection (when there is one) emits fp32
     * pixel-major rows. conv2's epilogue then finishes the block per
     * output row: bn2, the skip add and the final ReLU, then either a
     * requantized exit (@p out_q/@p out_s, resident semantics) or fp32
     * NCHW planes (@p out_planes). Exactly one exit may be given. The
     * identity skip is the exact dequantization of the resident input
     * — the value the quantized chain actually carries.
     */
    void forwardResident(const QuantActivation &in, std::int8_t *out_q,
                         float *out_s, float *out_planes);

  private:
    Sequential _main;
    Sequential _proj;  // empty when identity skip
    bool _hasProj;
    LayerPtr _finalRelu;

    // Raw child pointers captured at construction (the children live in
    // _main/_proj); used by the resident path and plan build.
    Conv2d *_conv1 = nullptr;
    BatchNorm2d *_bn1 = nullptr;
    Conv2d *_conv2 = nullptr;
    BatchNorm2d *_bn2 = nullptr;
    Conv2d *_projConv = nullptr;
    BatchNorm2d *_projBn = nullptr;
    bool _resident = false;
};

} // namespace leca

#endif // LECA_NN_SEQUENTIAL_HH
