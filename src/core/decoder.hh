/**
 * @file
 * The LeCA decoder (Table 2): a transposed-convolution upsampler from
 * the quantized ofmap back to image extent, a stack of M DnCNN-style
 * convolutional blocks, and a filtered head (conv+BN+ReLU, conv). It
 * runs off-sensor at full precision (Sec. 3.4) and is trained jointly
 * with the encoder against the frozen backbone.
 */

#ifndef LECA_CORE_DECODER_HH
#define LECA_CORE_DECODER_HH

#include "core/leca_config.hh"
#include "nn/sequential.hh"
#include "util/rng.hh"

namespace leca {

/** Decoder network; a thin wrapper around a Sequential stack. */
class LecaDecoder : public Layer
{
  public:
    LecaDecoder(const LecaConfig &config, Rng &init_rng);

    Tensor forward(const Tensor &x, Mode mode) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<Param *> params() override { return _net.params(); }
    std::vector<Tensor *> state() override { return _net.state(); }
    void
    setStatsRefresh(bool enable) override
    {
        _net.setStatsRefresh(enable);
    }
    void
    quantizeWeights(std::vector<QuantStat> &stats) override
    {
        _net.quantizeWeights(stats);
    }
    std::vector<QuantTensor *> quantTensors() override
    {
        return _net.quantTensors();
    }

    /**
     * The decoder stack. Restores that bypass quantizeWeights
     * (Pipeline::loadQuantized) rebuild its quantized execution plan
     * through it (DESIGN.md §13).
     */
    Sequential &net() { return _net; }

    /** Total parameter count (for the Table 2 size discussion). */
    std::size_t parameterCount();

  private:
    Sequential _net;
};

} // namespace leca

#endif // LECA_CORE_DECODER_HH
