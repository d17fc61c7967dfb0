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

#include <memory>

#include "core/leca_config.hh"
#include "nn/sequential.hh"
#include "util/rng.hh"

namespace leca {

/** The decoder network for @p config, initialised from @p init_rng. */
std::unique_ptr<Sequential> makeDecoder(const LecaConfig &config,
                                        Rng &init_rng);

} // namespace leca

#endif // LECA_CORE_DECODER_HH
