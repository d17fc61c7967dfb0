#include "learned_codec.hh"

#include <algorithm>

#include "data/trainloop.hh"
#include "nn/activation.hh"
#include "nn/conv.hh"
#include "nn/conv_transpose.hh"
#include "nn/loss.hh"
#include "nn/optimizer.hh"
#include "util/check.hh"
#include "util/rng.hh"

namespace leca {

LearnedCodec::LearnedCodec(int latent_channels, std::uint64_t seed)
    : _latentChannels(latent_channels),
      _encoder(std::make_unique<Sequential>()),
      _decoder(std::make_unique<Sequential>())
{
    LECA_CHECK(latent_channels >= 1, "need at least one latent channel");
    Rng rng(seed);
    // Two-stage strided encoder (total stride 4) — already far more
    // computation than a CIS column circuit could host.
    _encoder->emplace<Conv2d>(3, 24, 3, 2, 1, true, rng);
    _encoder->emplace<Relu>();
    _encoder->emplace<Conv2d>(24, latent_channels, 3, 2, 1, true, rng);
    _encoder->emplace<HardClamp>(-4.0f, 4.0f);

    _decoder->emplace<ConvTranspose2d>(latent_channels, 32, 2, 2, true,
                                       rng);
    _decoder->emplace<Relu>();
    _decoder->emplace<Conv2d>(32, 32, 3, 1, 1, true, rng);
    _decoder->emplace<Relu>();
    _decoder->emplace<ConvTranspose2d>(32, 24, 2, 2, true, rng);
    _decoder->emplace<Relu>();
    _decoder->emplace<Conv2d>(24, 3, 3, 1, 1, true, rng);
}

LearnedCodec::~LearnedCodec() = default;

double
LearnedCodec::compressionRatio() const
{
    // Input: 4x4x3 pixels at 8 bits per latent element; latent:
    // latentChannels elements at 8 bits.
    return 4.0 * 4.0 * 3.0 / static_cast<double>(_latentChannels);
}

WireStream
LearnedCodec::wireSymbols(const Tensor &batch)
{
    LECA_CHECK(_trained,
                "LearnedCodec::process before train() — the learned "
                "baseline must be fitted first");
    return codeWire(_encoder->forward(batch, Mode::Eval), -4.0f, 4.0f,
                    QBits(8.0));
}

Tensor
LearnedCodec::decode(const WireStream &ws, const std::vector<int> &shape)
{
    const Tensor latent = codeValues(
        ws, {shape[0], _latentChannels, shape[2] / 4, shape[3] / 4}, -4.0f,
        4.0f, QBits(8.0));
    Tensor out = _decoder->forward(latent, Mode::Eval);
    const std::size_t per_image = out.numel() / shape[0];
    forEachImage(shape[0], [&](int i) {
        float *image = out.data() + i * per_image;
        for (std::size_t k = 0; k < per_image; ++k)
            image[k] = std::clamp(image[k], 0.0f, 1.0f);
    });
    return out;
}

void
LearnedCodec::train(const Dataset &data, int epochs, double learning_rate,
                    int batch_size)
{
    std::vector<Param *> params = _encoder->params();
    for (Param *p : _decoder->params())
        params.push_back(p);
    Adam adam(params, learning_rate);
    MseLoss loss;

    const int n = data.count();
    for (int epoch = 0; epoch < epochs; ++epoch) {
        for (int begin = 0; begin < n; begin += batch_size) {
            const int count = std::min(batch_size, n - begin);
            const Dataset batch = sliceDataset(data, begin, count);
            adam.zeroGrad();
            // The 8-bit latent quantizer is benign enough to train
            // straight through (256 levels).
            const Tensor latent =
                _encoder->forward(batch.images, Mode::Train);
            const Tensor recon = _decoder->forward(latent, Mode::Train);
            loss.forward(recon, batch.images);
            const Tensor d_latent = _decoder->backward(loss.backward());
            _encoder->backward(d_latent);
            adam.step();
        }
    }
    _trained = true;
}

} // namespace leca
