#include "decoder.hh"

#include "nn/activation.hh"
#include "nn/batchnorm.hh"
#include "nn/conv.hh"
#include "nn/conv_transpose.hh"

namespace leca {

std::unique_ptr<Sequential>
makeDecoder(const LecaConfig &config, Rng &init_rng)
{
    config.validate();
    const int c = config.inChannels;
    const int f = config.decoderFilters;
    const int kd = config.decoderKernel;
    const int pad = kd / 2;

    auto net = std::make_unique<Sequential>();
    // Upsample the ofmap back to the image extent (Table 2, row 1).
    net->emplace<ConvTranspose2d>(config.nch, c, config.kernel,
                                  config.kernel, true, init_rng);
    // M DnCNN-style denoising blocks (Table 2, row 2).
    for (int m = 0; m < config.decoderDncnnLayers; ++m) {
        net->emplace<Conv2d>(c, c, kd, 1, pad, true, init_rng);
        net->emplace<Relu>();
    }
    // Filtered head (Table 2, rows 3-4).
    net->emplace<Conv2d>(c, f, kd, 1, pad, false, init_rng);
    net->emplace<BatchNorm2d>(f);
    net->emplace<Relu>();
    net->emplace<Conv2d>(f, c, kd, 1, pad, true, init_rng);
    return net;
}

} // namespace leca
