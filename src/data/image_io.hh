/**
 * @file
 * Minimal PPM/PGM image IO used for the Fig. 12 feature visualisation
 * bench and the example applications.
 */

#ifndef LECA_DATA_IMAGE_IO_HH
#define LECA_DATA_IMAGE_IO_HH

#include <string>

#include "tensor/tensor.hh"

namespace leca {

/** Write a [3,H,W] tensor in [0,1] as a binary PPM (P6). */
void writePpm(const Tensor &image, const std::string &path);

/**
 * Write a [H,W] or [1,H,W] tensor as a binary PGM (P5). Values are
 * min-max normalised to [0,255] when @p normalize, else clamped from
 * [0,1].
 */
void writePgm(const Tensor &image, const std::string &path,
              bool normalize = false);

} // namespace leca

#endif // LECA_DATA_IMAGE_IO_HH
