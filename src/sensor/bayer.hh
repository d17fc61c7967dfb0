/**
 * @file
 * Bayer colour-filter-array handling (Sec. 2.1, Sec. 4.1).
 *
 * The LeCA sensor uses an RGGB pattern in which "the green pixel is
 * duplicated": a VxH raw array captures a (V/2)x(H/2) RGB frame, with
 * the two green sites of each 2x2 cell sampling the same green value.
 * Kernel flattening (Fig. 5(a)) relies on this layout.
 */

#ifndef LECA_SENSOR_BAYER_HH
#define LECA_SENSOR_BAYER_HH

#include "tensor/tensor.hh"

namespace leca {

/**
 * Mosaic an RGB image [3,H,W] into a raw Bayer frame [2H,2W]
 * (both green sites take the pixel's green value).
 */
Tensor mosaic(const Tensor &rgb);

} // namespace leca

#endif // LECA_SENSOR_BAYER_HH
