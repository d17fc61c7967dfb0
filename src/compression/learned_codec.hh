/**
 * @file
 * Learned digital image codec — the "Learned [1,13,59,89]" row of
 * Table 1: an autoencoder trained for reconstruction quality in the
 * digital domain. Unlike LeCA it is task-agnostic (MSE objective),
 * runs after full 8-bit digitization, and needs a multi-layer encoder
 * network — exactly the contrast the paper draws (Sec. 7, "Learned
 * compression": computation-intensive encoders infeasible inside a
 * CIS).
 */

#ifndef LECA_COMPRESSION_LEARNED_CODEC_HH
#define LECA_COMPRESSION_LEARNED_CODEC_HH

#include <memory>

#include "compression/method.hh"
#include "data/dataset.hh"
#include "nn/sequential.hh"

namespace leca {

/**
 * Convolutional autoencoder codec: a strided encoder produces a
 * latent feature map that is uniformly quantized to 8 bits, and a
 * transposed-convolution decoder reconstructs the image. The
 * compression ratio is input_bits / latent_bits = 48 / latentChannels
 * for the 4x4-stride latent.
 */
class LearnedCodec : public CompressionMethod
{
  public:
    /**
     * @param latent_channels latent depth (12 -> CR 4, 8 -> CR 6,
     *                        6 -> CR 8)
     * @param seed            weight init seed
     */
    explicit LearnedCodec(int latent_channels = 12,
                          std::uint64_t seed = 31);
    ~LearnedCodec() override;

    /** Train the autoencoder on @p images (MSE objective). */
    void train(const Dataset &data, int epochs = 12,
               double learning_rate = 2e-3, int batch_size = 32);

    std::string name() const override { return "Learned"; }
    double compressionRatio() const override;

    /** Wire: the 8-bit codes of the latent on [-4, 4]. */
    WireStream wireSymbols(const Tensor &batch) override;

    EncodingDomain domain() const override
    {
        return EncodingDomain::Digital;
    }
    Objective objective() const override { return Objective::TaskAgnostic; }
    std::string hardwareOverhead() const override { return "Medium"; }

  private:
    Tensor decode(const WireStream &ws,
                  const std::vector<int> &shape) override;

    int _latentChannels;
    std::unique_ptr<Sequential> _encoder;
    std::unique_ptr<Sequential> _decoder;
    bool _trained = false;
};

} // namespace leca

#endif // LECA_COMPRESSION_LEARNED_CODEC_HH
